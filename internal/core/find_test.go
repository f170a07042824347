package core

import (
	"math/rand"
	"slices"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

func TestFindMatchesSequentialReference(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range testSizes {
			s := randomInts(rng, n, 50)
			for trial := 0; trial < 5; trial++ {
				v := rng.Intn(60) // sometimes absent
				want := -1
				for i, e := range s {
					if e == v {
						want = i
						break
					}
				}
				if got := Find(p, s, v); got != want {
					t.Fatalf("n=%d v=%d: Find=%d want %d", n, v, got, want)
				}
			}
		}
	})
}

func TestFindReturnsFirstOccurrence(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 20000)
		// Plant duplicates at several positions; Find must return the
		// earliest even when a later chunk finds its copy first.
		for _, pos := range []int{19999, 15000, 8000, 3001} {
			s[pos] = 9
		}
		if got := Find(p, s, 9); got != 3001 {
			t.Fatalf("Find = %d, want 3001", got)
		}
	})
}

func TestFindPaperScenario(t *testing.T) {
	// The paper's X::find: v = [1..n], search for a random element.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(42))
		s := iota(1 << 15)
		for trial := 0; trial < 10; trial++ {
			want := rng.Intn(len(s))
			if got := Find(p, s, float64(want+1)); got != want {
				t.Fatalf("Find(%d) = %d", want+1, got)
			}
		}
	})
}

func TestFindIfAndFindIfNot(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(10000)
		if got := FindIf(p, s, func(v float64) bool { return v > 5000 }); got != 5000 {
			t.Fatalf("FindIf = %d", got)
		}
		if got := FindIf(p, s, func(v float64) bool { return v < 0 }); got != -1 {
			t.Fatalf("FindIf absent = %d", got)
		}
		if got := FindIfNot(p, s, func(v float64) bool { return v < 9000 }); got != 8999 {
			t.Fatalf("FindIfNot = %d", got)
		}
		if got := FindIfNot(p, s, func(v float64) bool { return v > 0 }); got != -1 {
			t.Fatalf("FindIfNot all-true = %d", got)
		}
	})
}

func TestFindEmptyAndSingleton(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		if got := Find(p, []int{}, 1); got != -1 {
			t.Fatalf("empty: %d", got)
		}
		if got := Find(p, []int{5}, 5); got != 0 {
			t.Fatalf("singleton hit: %d", got)
		}
		if got := Find(p, []int{5}, 6); got != -1 {
			t.Fatalf("singleton miss: %d", got)
		}
	})
}

func TestFindFirstOf(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{9, 8, 7, 2, 6, 3, 5}
		if got := FindFirstOf(p, s, []int{3, 2}); got != 3 {
			t.Fatalf("FindFirstOf = %d", got)
		}
		if got := FindFirstOf(p, s, []int{100}); got != -1 {
			t.Fatalf("FindFirstOf absent = %d", got)
		}
		if got := FindFirstOf(p, s, nil); got != -1 {
			t.Fatalf("FindFirstOf empty set = %d", got)
		}
	})
}

func TestAdjacentFind(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		eq := func(a, b int) bool { return a == b }
		s := make([]int, 20000)
		for i := range s {
			s[i] = i
		}
		if got := AdjacentFind(p, s, eq); got != -1 {
			t.Fatalf("no adjacent pair expected, got %d", got)
		}
		s[12345] = s[12344]
		if got := AdjacentFind(p, s, eq); got != 12344 {
			t.Fatalf("AdjacentFind = %d, want 12344", got)
		}
		if got := AdjacentFind(p, []int{1}, eq); got != -1 {
			t.Fatalf("singleton: %d", got)
		}
		if got := AdjacentFind(p, []int{}, eq); got != -1 {
			t.Fatalf("empty: %d", got)
		}
	})
}

func TestSearch(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []byte("the quick brown fox jumps over the lazy dog the end")
		cases := []struct {
			sub  string
			want int
		}{
			{"the", 0},
			{"fox", 16},
			{"end", 48},
			{"cat", -1},
			{"", 0},
			{"the quick brown fox jumps over the lazy dog the end!", -1},
		}
		for _, c := range cases {
			if got := Search(p, s, []byte(c.sub)); got != c.want {
				t.Fatalf("Search(%q) = %d, want %d", c.sub, got, c.want)
			}
		}
	})
}

func TestSearchLargeInput(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 40000)
		sub := []int{1, 2, 3, 4}
		copy(s[33333:], sub)
		if got := Search(p, s, sub); got != 33333 {
			t.Fatalf("Search = %d", got)
		}
	})
}

func TestSearchN(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{1, 0, 0, 1, 0, 0, 0, 1}
		if got := SearchN(p, s, 3, 0); got != 4 {
			t.Fatalf("SearchN = %d, want 4", got)
		}
		if got := SearchN(p, s, 4, 0); got != -1 {
			t.Fatalf("SearchN(4) = %d", got)
		}
		if got := SearchN(p, s, 0, 0); got != 0 {
			t.Fatalf("SearchN(0) = %d", got)
		}
	})
}

func TestFindEnd(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{1, 2, 3, 1, 2, 3, 1, 2}
		if got := FindEnd(p, s, []int{1, 2, 3}); got != 3 {
			t.Fatalf("FindEnd = %d, want 3", got)
		}
		if got := FindEnd(p, s, []int{1, 2}); got != 6 {
			t.Fatalf("FindEnd trailing = %d, want 6", got)
		}
		if got := FindEnd(p, s, []int{7}); got != -1 {
			t.Fatalf("FindEnd absent = %d", got)
		}
		if got := FindEnd(p, s, nil); got != len(s) {
			t.Fatalf("FindEnd empty = %d", got)
		}
		if got := FindEnd(p, []int{1}, []int{1, 2}); got != -1 {
			t.Fatalf("FindEnd longer-sub = %d", got)
		}
	})
}

// findCaller is one algorithm on the early-exit engine, driven through the
// engine's index space [0, m(n)). run plants one match at engine index k
// (none when k < 0) in fresh data of length n, and returns the algorithm's
// answer under p and the answer of a plain sequential loop over the same
// data.
type findCaller struct {
	name string
	m    func(n int) int
	run  func(p Policy, n, k int) (got, want int)
}

// firstIndex is the plain sequential reference: the smallest i in [0, m)
// with match(i), or -1.
func firstIndex(m int, match func(i int) bool) int {
	for i := 0; i < m; i++ {
		if match(i) {
			return i
		}
	}
	return -1
}

// ascending returns [0, 1, ..., n-1]: no element is negative, no two
// neighbours are equal and no value repeats, so a planted negative value is
// the only match.
func ascending(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func findCallers() []findCaller {
	same := func(n int) int { return n }
	neg := func(v int) bool { return v < 0 }
	plant := func(n, k int) []int {
		s := ascending(n)
		if k >= 0 {
			s[k] = -1
		}
		return s
	}
	sub := []int{-1, -2}
	plantSub := func(n, pos int) []int {
		s := ascending(n)
		if pos >= 0 {
			copy(s[pos:], sub)
		}
		return s
	}
	// differ returns a and a copy b of it with b[k] raised by one.
	differ := func(n, k int) (a, b []int) {
		a = ascending(n)
		b = slices.Clone(a)
		if k >= 0 {
			b[k]++
		}
		return a, b
	}
	return []findCaller{
		{"Find", same, func(p Policy, n, k int) (int, int) {
			s := plant(n, k)
			return Find(p, s, -1), firstIndex(n, func(i int) bool { return s[i] == -1 })
		}},
		{"FindIf", same, func(p Policy, n, k int) (int, int) {
			s := plant(n, k)
			return FindIf(p, s, neg), firstIndex(n, func(i int) bool { return s[i] < 0 })
		}},
		{"FindIfNot", same, func(p Policy, n, k int) (int, int) {
			s := plant(n, k)
			pos := func(v int) bool { return v >= 0 }
			return FindIfNot(p, s, pos), firstIndex(n, func(i int) bool { return s[i] < 0 })
		}},
		{"FindFirstOf", same, func(p Policy, n, k int) (int, int) {
			s := plant(n, k)
			set := []int{-5, -1}
			return FindFirstOf(p, s, set), firstIndex(n, func(i int) bool { return s[i] == -5 || s[i] == -1 })
		}},
		{"AdjacentFind", func(n int) int { return n - 1 }, func(p Policy, n, k int) (int, int) {
			s := ascending(n)
			if k >= 0 {
				s[k+1] = -1 // s[k] > s[k+1]: the first descent
			}
			gt := func(a, b int) bool { return a > b }
			return AdjacentFind(p, s, gt), firstIndex(n-1, func(i int) bool { return s[i] > s[i+1] })
		}},
		{"Search", func(n int) int { return n - len(sub) + 1 }, func(p Policy, n, k int) (int, int) {
			s := plantSub(n, k)
			return Search(p, s, sub), firstIndex(n-len(sub)+1, func(i int) bool { return s[i] == -1 && s[i+1] == -2 })
		}},
		{"SearchN", func(n int) int { return n - 2 }, func(p Policy, n, k int) (int, int) {
			s := ascending(n)
			if k >= 0 {
				s[k], s[k+1], s[k+2] = -1, -1, -1
			}
			run3 := func(i int) bool { return s[i] == -1 && s[i+1] == -1 && s[i+2] == -1 }
			return SearchN(p, s, 3, -1), firstIndex(n-2, run3)
		}},
		{"FindEnd", func(n int) int { return n - len(sub) + 1 }, func(p Policy, n, k int) (int, int) {
			// Engine index k is position m-1-k in the mirrored space.
			m := n - len(sub) + 1
			pos := -1
			if k >= 0 {
				pos = m - 1 - k
			}
			s := plantSub(n, pos)
			want := -1
			for i := m - 1; i >= 0; i-- {
				if s[i] == -1 && s[i+1] == -2 {
					want = i
					break
				}
			}
			return FindEnd(p, s, sub), want
		}},
		{"Mismatch", same, func(p Policy, n, k int) (int, int) {
			a, b := differ(n, k)
			return Mismatch(p, a, b), firstIndex(n, func(i int) bool { return a[i] != b[i] })
		}},
		{"MismatchFunc", same, func(p Policy, n, k int) (int, int) {
			a, b := differ(n, k)
			eq := func(x, y int) bool { return x == y }
			return MismatchFunc(p, a, b, eq), firstIndex(n, func(i int) bool { return a[i] != b[i] })
		}},
		{"LexicographicalCompare", same, func(p Policy, n, k int) (int, int) {
			// a < b at k and a > b at the last index, so an answer drawn
			// from any difference but the first has the wrong sign.
			a, b := differ(n, k)
			if k >= 0 && k < n-1 {
				b[n-1] -= 2
			}
			want := 0
			if i := firstIndex(n, func(i int) bool { return a[i] != b[i] }); i >= 0 && a[i] < b[i] {
				want = 1
			}
			got := 0
			if LexicographicalCompare(p, a, b, intLess) {
				got = 1
			}
			return got, want
		}},
		{"IsHeapUntil", func(n int) int { return n - 1 }, func(p Policy, n, k int) (int, int) {
			// Descending order is a max-heap; raising element k+1 above
			// everything makes it the first child bigger than its parent.
			s := make([]int, n)
			for i := range s {
				s[i] = n - i
			}
			if k >= 0 {
				s[k+1] = 2 * n
			}
			want := n
			if c := firstIndex(n-1, func(i int) bool { return s[i/2] < s[i+1] }); c >= 0 {
				want = c + 1
			}
			return IsHeapUntil(p, s, intLess), want
		}},
	}
}

// findPositions returns the engine indices the boundary test plants a
// match at: 0, findBlock-1, findBlock, both ends of every chunk of the
// policy's decomposition of [0, m), m-1, and -1 for no match.
func findPositions(p Policy, m int) []int {
	ks := []int{-1, 0, findBlock - 1, findBlock, m - 1}
	if p.parallel(m) {
		chunks := p.Chunks(m)
		for ci := 0; ci < chunks.Len(); ci++ {
			c := chunks.At(ci)
			ks = append(ks, c.Lo, c.Hi-1)
		}
	}
	slices.Sort(ks)
	ks = slices.Compact(ks)
	return slices.DeleteFunc(ks, func(k int) bool { return k >= m })
}

// TestFindEngineBoundaries plants the match of every early-exit algorithm
// at the block and chunk edges of the engine's index space and checks the
// answer against a plain sequential loop.
func TestFindEngineBoundaries(t *testing.T) {
	const n = 20011 // several findBlocks per Auto chunk, uneven chunk sizes
	pool := native.New(2, native.StrategyStealing)
	t.Cleanup(pool.Close)
	policies := []struct {
		name string
		p    Policy
	}{
		{"seq", Seq()},
		{"par", Par(pool)},
		{"fine", Par(pool).WithGrain(exec.Fine)},
		{"guided", Par(pool).WithGrain(exec.Guided)},
	}
	for _, pc := range policies {
		for _, fc := range findCallers() {
			t.Run(pc.name+"/"+fc.name, func(t *testing.T) {
				for _, k := range findPositions(pc.p, fc.m(n)) {
					if got, want := fc.run(pc.p, n, k); got != want {
						t.Fatalf("match at engine index %d: got %d, want %d", k, got, want)
					}
				}
			})
		}
	}
}

// TestPreCanceledFindReturnsNoMatch runs every early-exit algorithm under a
// pre-canceled parallel policy: no block is scanned, so each must return
// its no-match answer without panicking, and the token tells the caller to
// discard it.
func TestPreCanceledFindReturnsNoMatch(t *testing.T) {
	const n = 20011
	pool := native.New(2, native.StrategyStealing)
	t.Cleanup(pool.Close)
	tok := &exec.Cancel{}
	tok.Cancel()
	p := Par(pool).WithGrain(exec.Fine).WithCancel(tok)
	for _, fc := range findCallers() {
		t.Run(fc.name, func(t *testing.T) {
			got, _ := fc.run(p, n, 0)
			_, none := fc.run(Seq(), n, -1)
			if got != none {
				t.Fatalf("got %d, want the no-match answer %d", got, none)
			}
			if !p.Canceled() {
				t.Fatal("token must still report canceled")
			}
		})
	}
}
