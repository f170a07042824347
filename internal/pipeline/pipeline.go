// Package pipeline provides a lazy, composable pipeline over slices whose
// adjacent element-wise stages are fused into a single chunk-granular pass.
//
// The staged idiom this package replaces runs each algorithm as its own
// full sweep over the data:
//
//	tmp := make([]float64, n)
//	core.Transform(p, tmp, src, f)        // read src, write tmp
//	core.Transform(p, tmp, tmp, g)        // read tmp, write tmp
//	sum := core.Reduce(p, tmp, 0, add)    // read tmp
//
// At bandwidth-bound n (the regime pSTL-Bench measures for big inputs)
// each sweep is a trip through DRAM, so a 3-stage chain pays ~3× the
// memory traffic the arithmetic needs. The fused form
//
//	sum := pipeline.From(src).Transform(f).Transform(g).Reduce(p, 0, add)
//
// evaluates f∘g per element inside ONE chunk-granular loop: one pool
// submission, one memory sweep, no intermediate arrays. Chains compile
// down to the same exported core surface the staged algorithms use
// (core.FoldChunks / ScanChunks for the folds and scans, Policy.ParallelFor
// for Copy and Each), so per-chunk cancellation, grain sources, and the
// seq-threshold gate behave identically — every fused chain is
// element-wise equivalent to its staged core.* composition, which the
// property tests pin.
//
// Fusion rules: only 1:1 element-wise stages fuse (Transform/Map,
// TransformIndexed, and the type-changing MapTo). Terminals that need a
// global view are barriers: Scan needs two passes (the second pass
// re-evaluates the chain rather than materializing it), Sort must
// materialize before comparing, and cardinality-changing stages (filter,
// unique) are deliberately absent — they end a chain via CopyIf on a
// materialized buffer. See DESIGN.md §9.
package pipeline

import (
	"strings"

	"pstlbench/internal/core"
	"pstlbench/internal/tune"
)

// Pipeline is a lazy chain of element-wise stages over a logical index
// domain [0, n). Nothing executes until a terminal (Reduce, Copy, Scan,
// Sort, Each, Count) is called with a core.Policy. The zero value is an
// empty pipeline; build one with From or Generate.
//
// Go methods cannot introduce new type parameters, so in-chain stages are
// T→T; type-changing maps are the free function MapTo.
type Pipeline[T any] struct {
	n      int
	src    []T           // From source (nil for Generate)
	gen    func(i int) T // Generate source (nil for From)
	stages []func(i int, v T) T
	// plain[k] is stage k's index-free form when it has one (Transform/
	// Map), nil for TransformIndexed. eval composes all-plain chains from
	// these directly — one indirect call per stage per element, no
	// index-taking wrapper — which is what keeps the fused pass cheaper
	// than the staged one even where the generic-dictionary call overhead
	// rivals the DRAM cost per element.
	plain []func(v T) T
	names []string // signature parts: source, then one per stage
	tuner *tune.Tuner
}

// From starts a pipeline that reads its elements from src.
func From[T any](src []T) *Pipeline[T] {
	return &Pipeline[T]{n: len(src), src: src, names: []string{"from"}}
}

// Generate starts a pipeline whose element i is produced by gen(i) — a
// source with zero memory traffic, like std::generate feeding a chain.
// gen must be safe for concurrent calls with distinct i.
func Generate[T any](n int, gen func(i int) T) *Pipeline[T] {
	if n < 0 {
		n = 0
	}
	return &Pipeline[T]{n: n, gen: gen, names: []string{"gen"}}
}

// Len returns the pipeline's element count.
func (pl *Pipeline[T]) Len() int { return pl.n }

// Transform appends an element-wise stage computing f(v) — fused into the
// same pass as its neighbours (std::transform without the intermediate
// array). f must be pure: it may run concurrently and, under a Scan
// terminal, more than once per element.
func (pl *Pipeline[T]) Transform(f func(v T) T) *Pipeline[T] {
	return pl.push("map", func(_ int, v T) T { return f(v) }, f)
}

// Map is Transform under its functional-programming name.
func (pl *Pipeline[T]) Map(f func(v T) T) *Pipeline[T] { return pl.Transform(f) }

// TransformIndexed appends an element-wise stage that also sees the
// element index — enough to express iota-style and position-dependent
// kernels without a materialized index array.
func (pl *Pipeline[T]) TransformIndexed(f func(i int, v T) T) *Pipeline[T] {
	return pl.push("mapi", f, nil)
}

// WithTuner attaches an adaptive grain tuner: every terminal derives a
// tune site from the chain's Signature and executes under
// p.WithGrainSource(tuner.Site(sig)), so `--grain=adaptive` works on fused
// loops exactly as on the staged algorithms. The fused chain gets its OWN
// tune key — its bytes-per-element and instruction mix differ from any
// single stage, so it must not share a site with them.
func (pl *Pipeline[T]) WithTuner(t *tune.Tuner) *Pipeline[T] {
	pl.tuner = t
	return pl
}

// push appends a stage in place and returns the receiver: chains are
// built-and-consumed values, not persistent structures.
func (pl *Pipeline[T]) push(name string, f func(i int, v T) T, p func(v T) T) *Pipeline[T] {
	pl.stages = append(pl.stages, f)
	pl.plain = append(pl.plain, p)
	pl.names = append(pl.names, name)
	return pl
}

// allPlain reports whether every stage has an index-free form.
func (pl *Pipeline[T]) allPlain() bool {
	for _, p := range pl.plain {
		if p == nil {
			return false
		}
	}
	return true
}

// Signature identifies the fused chain's shape, e.g.
// "pipeline:from+map+map". Terminals append their own tag
// ("…+reduce") to form the tune site and trace label, so chains with the
// same stage mix share tuning state across call sites.
func (pl *Pipeline[T]) Signature() string {
	return "pipeline:" + strings.Join(pl.names, "+")
}

// MapTo fuses a type-changing stage onto the chain, starting a new
// Pipeline[U] whose source evaluates the old chain per element. No
// materialization happens at the seam: U's source function IS the fused
// T-chain followed by f.
func MapTo[T, U any](pl *Pipeline[T], f func(v T) U) *Pipeline[U] {
	ev := pl.eval()
	return &Pipeline[U]{
		n:     pl.n,
		gen:   func(i int) U { return f(ev(i)) },
		names: append(append([]string{}, pl.names...), "mapto"),
		tuner: pl.tuner,
	}
}

// eval compiles the chain into a single per-element evaluator, the one
// the general terminal loops call. All-plain chains of up to three stages
// compose the user functions directly, so the evaluator pays one indirect
// call per stage and no index-taking wrapper; a zero-stage Generate chain
// returns gen itself, so its loops run exactly as a hand-written loop
// over gen would. Other chains compose the indexed stage forms.
func (pl *Pipeline[T]) eval() func(i int) T {
	if pl.allPlain() {
		if src := pl.src; src != nil {
			switch len(pl.stages) {
			case 0:
				return func(i int) T { return src[i] }
			case 1:
				f0 := pl.plain[0]
				return func(i int) T { return f0(src[i]) }
			case 2:
				f0, f1 := pl.plain[0], pl.plain[1]
				return func(i int) T { return f1(f0(src[i])) }
			case 3:
				f0, f1, f2 := pl.plain[0], pl.plain[1], pl.plain[2]
				return func(i int) T { return f2(f1(f0(src[i]))) }
			}
		} else if gen := pl.gen; gen != nil {
			switch len(pl.stages) {
			case 0:
				return gen
			case 1:
				f0 := pl.plain[0]
				return func(i int) T { return f0(gen(i)) }
			case 2:
				f0, f1 := pl.plain[0], pl.plain[1]
				return func(i int) T { return f1(f0(gen(i))) }
			case 3:
				f0, f1, f2 := pl.plain[0], pl.plain[1], pl.plain[2]
				return func(i int) T { return f2(f1(f0(gen(i)))) }
			}
		}
	}
	load := pl.gen
	if src := pl.src; src != nil {
		load = func(i int) T { return src[i] }
	}
	if load == nil {
		var zero T
		load = func(int) T { return zero }
	}
	switch len(pl.stages) {
	case 0:
		return load
	case 1:
		f0 := pl.stages[0]
		return func(i int) T { return f0(i, load(i)) }
	case 2:
		f0, f1 := pl.stages[0], pl.stages[1]
		return func(i int) T { return f1(i, f0(i, load(i))) }
	case 3:
		f0, f1, f2 := pl.stages[0], pl.stages[1], pl.stages[2]
		return func(i int) T { return f2(i, f1(i, f0(i, load(i)))) }
	default:
		fns := pl.stages
		return func(i int) T {
			v := load(i)
			for _, f := range fns {
				v = f(i, v)
			}
			return v
		}
	}
}

// policyFor derives the execution policy of a terminal: the caller's
// policy, plus the chain-signature tune site when a tuner is attached.
func (pl *Pipeline[T]) policyFor(p core.Policy, terminal string) core.Policy {
	if pl.tuner != nil {
		p = p.WithGrainSource(pl.tuner.Site(pl.Signature() + "+" + terminal))
	}
	return p
}

// Reduce executes the chain and folds the results with op starting from
// init (std::transform_reduce over the whole fused chain), through
// core.FoldChunks with core.StripedFold over eval(). As with core.Reduce,
// op must be associative and commutative: within a chunk the fold runs
// fixed accumulator stripes, across chunks partials fold in chunk order,
// so the result is deterministic for a fixed policy. Under a canceled
// policy the result is incomplete and must be discarded (p.Canceled() is
// the source of truth), exactly as with the staged form.
func (pl *Pipeline[T]) Reduce(p core.Policy, init T, op func(a, b T) T) T {
	p = pl.policyFor(p, "reduce")
	return core.FoldChunks(p, pl.n, init, core.StripedFold(pl.eval(), op), op)
}

// Sum folds a numeric chain with +, the fused counterpart of core.Sum
// (the common std::reduce case the paper benchmarks). A free function
// because methods cannot add the Number constraint — which is exactly what
// lets it inline the addition: the fold pays zero op-callback calls per
// element, only the user stages. A zero-stage From chain is core.Sum
// itself, so both give the same bits.
func Sum[T core.Number](p core.Policy, pl *Pipeline[T], init T) T {
	p = pl.policyFor(p, "reduce")
	if pl.src != nil && len(pl.stages) == 0 {
		return core.Sum(p, pl.src, init)
	}
	return core.FoldChunks(p, pl.n, init, sumFolder(pl), func(a, b T) T { return a + b })
}

// sumFolder compiles a numeric chain into a range fold for Sum, striped
// like core.StripedSum. One shape keeps hand-specialised loops that call
// the user stages directly: a From or Generate source with two plain
// maps, which the bulk fused_chain benchmark, pstlbench -fused, ext-fusion
// and the examples run, and where the general loop over eval() pays one
// more indirect call per element (~115 vs ~74 ms for From, ~135 vs ~87 ms
// for Generate, at 2^24 float64, sequential, on a 2-vCPU Xeon VM). Every
// other shape runs core.StripedSum over eval(); for a zero-stage Generate
// chain that is the loop over gen itself.
func sumFolder[T core.Number](pl *Pipeline[T]) func(lo, hi int) T {
	if len(pl.stages) != 2 || !pl.allPlain() {
		return core.StripedSum(pl.eval())
	}
	f0, f1 := pl.plain[0], pl.plain[1]
	if src := pl.src; src != nil {
		return func(lo, hi int) T {
			var a0, a1, a2, a3 T
			i := lo
			for ; i+3 < hi; i += 4 {
				a0 += f1(f0(src[i]))
				a1 += f1(f0(src[i+1]))
				a2 += f1(f0(src[i+2]))
				a3 += f1(f0(src[i+3]))
			}
			acc := (a0 + a1) + (a2 + a3)
			for ; i < hi; i++ {
				acc += f1(f0(src[i]))
			}
			return acc
		}
	}
	gen := pl.gen
	return func(lo, hi int) T {
		var a0, a1, a2, a3 T
		i := lo
		for ; i+3 < hi; i += 4 {
			a0 += f1(f0(gen(i)))
			a1 += f1(f0(gen(i + 1)))
			a2 += f1(f0(gen(i + 2)))
			a3 += f1(f0(gen(i + 3)))
		}
		acc := (a0 + a1) + (a2 + a3)
		for ; i < hi; i++ {
			acc += f1(f0(gen(i)))
		}
		return acc
	}
}

// Copy executes the chain and writes element i to dst[i] — the fused
// generate/transform-into-destination terminal. dst must have length ≥ n
// and must not alias a From source unless element-wise overwrite is
// intended (i is written only after being read, within the same index).
func (pl *Pipeline[T]) Copy(p core.Policy, dst []T) {
	_ = dst[:pl.n] // bounds check once, like core.Transform
	ev := pl.eval()
	pl.forRanges(p, "copy", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = ev(i)
		}
	})
}

// Each executes the chain and calls fn(i, value) per element. fn runs
// concurrently across chunks and must synchronize any shared writes.
func (pl *Pipeline[T]) Each(p core.Policy, fn func(i int, v T)) {
	ev := pl.eval()
	pl.forRanges(p, "each", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i, ev(i))
		}
	})
}

// forRanges runs body over [0, n) under the terminal's policy: in one
// call sequentially, chunk by chunk on the pool otherwise.
func (pl *Pipeline[T]) forRanges(p core.Policy, terminal string, body func(lo, hi int)) {
	p = pl.policyFor(p, terminal)
	if !p.ShouldParallelize(pl.n) {
		body(0, pl.n)
		return
	}
	p.ParallelFor(pl.n, func(_, lo, hi int) { body(lo, hi) })
}

// Count executes the chain and returns how many elements satisfy pred —
// the fused transform+count_if.
func (pl *Pipeline[T]) Count(p core.Policy, pred func(v T) bool) int {
	p = pl.policyFor(p, "count")
	ev := pl.eval()
	return core.FoldChunks(p, pl.n, 0, func(lo, hi int) int {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(ev(i)) {
				c++
			}
		}
		return c
	}, func(a, b int) int { return a + b })
}

// Scan executes the chain and writes its inclusive prefix combination
// under op into dst (fused transform_inclusive_scan). Scan is a fusion
// BARRIER: a prefix needs every earlier element, so the parallel form is
// core.ScanChunks, the two-phase decomposition core's scans use — phase 1
// folds per-chunk sums, phase 2 re-evaluates the chain from the chunk's
// carry. The chain is therefore evaluated twice per element; stages must
// be pure, and for expensive stages a materializing
// Copy-then-core.InclusiveScan can be cheaper. Phase 1 uses Reduce's
// striped fold, so op must be associative and commutative; with op = +
// over a From source the result is core.InclusiveSum's, bit for bit.
func (pl *Pipeline[T]) Scan(p core.Policy, dst []T, op func(a, b T) T) {
	p = pl.policyFor(p, "scan")
	_ = dst[:pl.n]
	ev := pl.eval()
	core.ScanChunks(p, pl.n, core.StripedFold(ev, op), op, func(lo, hi int, carry T, ok bool) {
		acc := ev(lo)
		if ok {
			acc = op(carry, acc)
		}
		dst[lo] = acc
		for i := lo + 1; i < hi; i++ {
			acc = op(acc, ev(i))
			dst[i] = acc
		}
	})
}

// Sort executes the chain into dst and sorts it ascending under less.
// Sort is a fusion BARRIER: comparisons need materialized values, so the
// chain fuses into the fill pass (one sweep instead of k) and the
// comparison sort runs on dst as core.SortFunc would. dst must have
// length ≥ n.
func (pl *Pipeline[T]) Sort(p core.Policy, dst []T, less func(a, b T) bool) {
	pl.Copy(p, dst)
	pol := pl.policyFor(p, "sort")
	core.SortFunc(pol, dst[:pl.n], less)
}

// ---------------------------------------------------------------------------
// Traffic model
//
// The per-element DRAM traffic of the staged vs fused execution, using the
// same write-allocate accounting as the simexec skeletons (a store to a
// cold line costs a read + a write): every materialized intermediate costs
// 2e to produce and e to consume, for element size e. These constants feed
// the pstlbench traffic columns and the ext-fusion experiment tables; the
// memsys plane derives its prediction independently from skeleton phases
// built with the same accounting.

// Traffic is the modeled DRAM traffic of one execution of a chain, in
// bytes, for both execution disciplines.
type Traffic struct {
	Fused  int64
	Staged int64
}

// ModelTraffic returns the modeled DRAM traffic of this chain under a
// given terminal ("reduce", "copy", "scan", "sort", "count", "each"),
// assuming elemBytes per element and an n too large to cache. The fused
// execution touches only source and sink; the staged execution streams
// every intermediate through memory.
func (pl *Pipeline[T]) ModelTraffic(elemBytes int, terminal string) Traffic {
	e := int64(elemBytes)
	n := int64(pl.n)
	srcRead := e // From: the source array is real traffic
	if pl.src == nil {
		srcRead = 0 // Generate: elements come from registers
	}
	stages := int64(len(pl.stages))

	// Staged: source materializes (Generate writes a tmp), each stage
	// reads its input array and writes (write-allocate) its output, the
	// terminal consumes the last array.
	var staged int64
	if pl.src == nil {
		staged += 2 * e // generate tmp0: write + allocate-read
	}
	staged += stages * 3 * e // per stage: read in + write out + wa
	var fused int64
	switch terminal {
	case "reduce", "count", "each":
		staged += e
		fused = srcRead
	case "copy", "sort":
		staged += 3 * e // read last + write dst + wa
		fused = srcRead + 2*e
	case "scan":
		staged += 4 * e // pass1 read, pass2 read + write + wa
		fused = 2*srcRead + 2*e
	default:
		staged += e
		fused = srcRead
	}
	return Traffic{Fused: fused * n, Staged: staged * n}
}
