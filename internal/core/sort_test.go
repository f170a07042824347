package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

func shuffledPermutation(rng *rand.Rand, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func TestSortPaperScenario(t *testing.T) {
	// The paper's X::sort: v is a random permutation of [1..n].
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(23))
		for _, n := range []int{0, 1, 2, 100, 4096, 4097, 50000} {
			s := shuffledPermutation(rng, n)
			Sort(p, s)
			for i, v := range s {
				if v != i+1 {
					t.Fatalf("n=%d: s[%d] = %d", n, i, v)
				}
			}
		}
	})
}

func TestSortFuncWithDuplicates(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(29))
		s := randomInts(rng, 30000, 100)
		want := slices.Clone(s)
		slices.Sort(want)
		SortFunc(p, s, intLess)
		if !equalSlices(s, want) {
			t.Fatal("SortFunc result differs from slices.Sort")
		}
	})
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		n := 20000
		asc := make([]int, n)
		for i := range asc {
			asc[i] = i
		}
		desc := make([]int, n)
		for i := range desc {
			desc[i] = n - i
		}
		Sort(p, asc)
		Sort(p, desc)
		if !IsSorted(Seq(), asc, intLess) || !IsSorted(Seq(), desc, intLess) {
			t.Fatal("sorted/reversed input not sorted")
		}
	})
}

type pair struct{ key, seq int }

func TestStableSortPreservesEqualOrder(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(31))
		s := make([]pair, 30000)
		for i := range s {
			s[i] = pair{key: rng.Intn(20), seq: i}
		}
		StableSort(p, s, func(a, b pair) bool { return a.key < b.key })
		for i := 1; i < len(s); i++ {
			if s[i-1].key > s[i].key {
				t.Fatalf("not sorted at %d", i)
			}
			if s[i-1].key == s[i].key && s[i-1].seq >= s[i].seq {
				t.Fatalf("stability violated at %d: seq %d then %d", i, s[i-1].seq, s[i].seq)
			}
		}
	})
}

func TestMerge(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(37))
		for _, sizes := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1000, 3000}, {20000, 20000}, {17, 40000}} {
			a := randomInts(rng, sizes[0], 1000)
			b := randomInts(rng, sizes[1], 1000)
			slices.Sort(a)
			slices.Sort(b)
			dst := make([]int, len(a)+len(b))
			Merge(p, dst, a, b, intLess)
			want := append(append([]int{}, a...), b...)
			slices.Sort(want)
			if !equalSlices(dst, want) {
				t.Fatalf("sizes %v: merge mismatch", sizes)
			}
		}
	})
}

func TestMergeStability(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		// a-elements carry seq < 100000; b-elements >= 100000. For equal
		// keys, all a's must precede all b's.
		mk := func(n, base int, rng *rand.Rand) []pair {
			s := make([]pair, n)
			for i := range s {
				s[i] = pair{key: rng.Intn(8), seq: base + i}
			}
			slices.SortStableFunc(s, func(x, y pair) int { return x.key - y.key })
			return s
		}
		rng := rand.New(rand.NewSource(41))
		a := mk(15000, 0, rng)
		b := mk(15000, 100000, rng)
		dst := make([]pair, len(a)+len(b))
		Merge(p, dst, a, b, func(x, y pair) bool { return x.key < y.key })
		for i := 1; i < len(dst); i++ {
			x, y := dst[i-1], dst[i]
			if x.key > y.key {
				t.Fatalf("not sorted at %d", i)
			}
			if x.key == y.key {
				// Within a source: ascending seq. Across sources: a first.
				if (x.seq < 100000) == (y.seq < 100000) {
					if x.seq >= y.seq {
						t.Fatalf("within-source order violated at %d", i)
					}
				} else if x.seq >= 100000 {
					t.Fatalf("b-element before equal a-element at %d", i)
				}
			}
		}
	})
}

func TestMergePanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Merge(Seq(), make([]int, 3), []int{1}, []int{2}, intLess)
}

func TestInplaceMerge(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(43))
		s := randomInts(rng, 30000, 500)
		mid := 13000
		slices.Sort(s[:mid])
		slices.Sort(s[mid:])
		want := slices.Clone(s)
		slices.Sort(want)
		InplaceMerge(p, s, mid, intLess)
		if !equalSlices(s, want) {
			t.Fatal("inplace merge mismatch")
		}
		// Degenerate mids.
		s2 := []int{3, 1, 2}
		InplaceMerge(p, s2, 0, intLess)
		InplaceMerge(p, s2, 3, intLess)
		if !equalSlices(s2, []int{3, 1, 2}) {
			t.Fatal("degenerate mid mutated slice")
		}
	})
}

func TestIsSortedAndUntil(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(30000)
		less := func(a, b float64) bool { return a < b }
		if !IsSorted(p, s, less) {
			t.Fatal("sorted slice reported unsorted")
		}
		if got := IsSortedUntil(p, s, less); got != len(s) {
			t.Fatalf("IsSortedUntil = %d", got)
		}
		s[20000] = 0
		if IsSorted(p, s, less) {
			t.Fatal("unsorted slice reported sorted")
		}
		if got := IsSortedUntil(p, s, less); got != 20000 {
			t.Fatalf("IsSortedUntil = %d, want 20000", got)
		}
		if !IsSorted(p, []float64{}, less) || !IsSorted(p, []float64{1}, less) {
			t.Fatal("degenerate inputs not sorted")
		}
	})
}

func TestNthElement(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(47))
		for _, n := range []int{1, 2, 100, 20000} {
			for trial := 0; trial < 3; trial++ {
				s := randomInts(rng, n, 300)
				k := rng.Intn(n)
				want := slices.Clone(s)
				slices.Sort(want)
				NthElement(p, s, k, intLess)
				if s[k] != want[k] {
					t.Fatalf("n=%d k=%d: s[k]=%d want %d", n, k, s[k], want[k])
				}
				for i := 0; i < k; i++ {
					if s[i] > s[k] {
						t.Fatalf("element before k greater than s[k]")
					}
				}
				for i := k + 1; i < n; i++ {
					if s[i] < s[k] {
						t.Fatalf("element after k less than s[k]")
					}
				}
			}
		}
	})
}

func TestPartialSort(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(53))
		s := randomInts(rng, 25000, 10000)
		want := slices.Clone(s)
		slices.Sort(want)
		k := 500
		PartialSort(p, s, k, intLess)
		if !equalSlices(s[:k], want[:k]) {
			t.Fatal("first k elements not the k smallest in order")
		}
	})
}

func TestPartialSortCopy(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(59))
		src := randomInts(rng, 20000, 10000)
		orig := slices.Clone(src)
		want := slices.Clone(src)
		slices.Sort(want)
		dst := make([]int, 300)
		n := PartialSortCopy(p, dst, src, intLess)
		if n != 300 || !equalSlices(dst, want[:300]) {
			t.Fatalf("PartialSortCopy n=%d mismatch", n)
		}
		if !equalSlices(src, orig) {
			t.Fatal("PartialSortCopy mutated src")
		}
		// dst longer than src.
		short := []int{3, 1, 2}
		big := make([]int, 10)
		n = PartialSortCopy(p, big, short, intLess)
		if n != 3 || !equalSlices(big[:3], []int{1, 2, 3}) {
			t.Fatalf("short src: n=%d big=%v", n, big[:3])
		}
	})
}

func TestIsHeap(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		heap := []int{9, 7, 8, 3, 5, 6, 4}
		if !IsHeap(p, heap, intLess) {
			t.Fatal("valid heap rejected")
		}
		if got := IsHeapUntil(p, heap, intLess); got != len(heap) {
			t.Fatalf("IsHeapUntil = %d", got)
		}
		notHeap := []int{9, 7, 8, 3, 5, 10, 4}
		if IsHeap(p, notHeap, intLess) {
			t.Fatal("invalid heap accepted")
		}
		if got := IsHeapUntil(p, notHeap, intLess); got != 5 {
			t.Fatalf("IsHeapUntil = %d, want 5", got)
		}
		if !IsHeap(p, []int{}, intLess) || !IsHeap(p, []int{1}, intLess) {
			t.Fatal("degenerate heaps rejected")
		}
	})
}

func TestSortLargeUnderFineGrain(t *testing.T) {
	// Stress the merge recursion with a pool smaller than the task tree.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(61))
		s := shuffledPermutation(rng, 1<<17)
		Sort(p, s)
		for i, v := range s {
			if v != i+1 {
				t.Fatalf("s[%d] = %d", i, v)
			}
		}
	})
}

// TestSortFloatsMatchesSlicesSort pins Sort's float order to slices.Sort's:
// NaNs first, -0 and +0 equal. A bare a < b is not a strict weak ordering
// once NaNs are present, so leaves and merges built on it disagree with
// slices.Sort. Neither sort is stable, so ±0 may land in either order and
// elements are compared with cmp.Compare, not by bits.
func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	values := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, 2.5,
		math.Inf(1), math.Inf(-1), 7, 7}
	policies := []struct {
		name    string
		workers int
		grain   exec.Grain
	}{
		{"seq", 0, exec.Grain{}},
		{"par1", 1, exec.Auto},
		{"par2/auto", 2, exec.Auto},
		{"par2/fine", 2, exec.Fine},
		{"par2/guided", 2, exec.Guided},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			p := Seq()
			if pc.workers > 0 {
				pool := native.New(pc.workers, native.StrategyStealing)
				t.Cleanup(pool.Close)
				p = Par(pool).WithGrain(pc.grain)
			}
			rng := rand.New(rand.NewSource(67))
			for _, n := range []int{0, 1, 2, sortLeafSize, sortLeafSize + 1, 3*sortLeafSize + 7, 1 << 16} {
				in := make([]float64, n)
				for i := range in {
					in[i] = values[rng.Intn(len(values))]
				}
				want := slices.Clone(in)
				slices.Sort(want)
				got := slices.Clone(in)
				Sort(p, got)
				if !sameMultiset(got, in) {
					t.Fatalf("n=%d: output is not a permutation of the input", n)
				}
				for i := range got {
					if cmp.Compare(got[i], want[i]) != 0 {
						t.Fatalf("n=%d: s[%d] = %v, slices.Sort has %v", n, i, got[i], want[i])
					}
				}
			}
		})
	}
	t.Run("precanceled", func(t *testing.T) {
		pool := native.New(2, native.StrategyStealing)
		t.Cleanup(pool.Close)
		tok := &exec.Cancel{}
		tok.Cancel()
		p := Par(pool).WithCancel(tok)
		s := make([]float64, 3*sortLeafSize+7)
		for i := range s {
			s[i] = values[i%len(values)]
		}
		Sort(p, s) // must return without panicking; the result is discarded
		if !p.Canceled() {
			t.Fatal("token must still report canceled")
		}
	})
}

// sameMultiset reports whether a and b hold the same float64 values, by bit
// pattern, with the same multiplicities.
func sameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[uint64]int)
	for _, v := range a {
		count[math.Float64bits(v)]++
	}
	for _, v := range b {
		count[math.Float64bits(v)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
