package core

// This file holds the one chunk-fold engine every reduction and scan in
// this package, in internal/pipeline and in internal/flow runs through:
// FoldChunks for reductions, ScanChunks for the two-phase prefix, and the
// 4-stripe range folds they are usually fed with. Both drivers share the
// rules the algorithms used to re-implement one by one:
//
//   - n == 0 and the sequential gate are handled here, so callers write
//     only the per-range loop.
//   - Every phase uses the one p.Chunks(n) decomposition; its chunks are
//     never empty for n >= 1 (see partition_test.go), so folds need no
//     identity element and no has-value tracking.
//   - Partials combine in chunk order, so float results are deterministic
//     for a fixed policy.
//   - If the policy is canceled after a parallel phase, the driver returns
//     at once rather than combining partials that were never written. The
//     result is then incomplete, as documented on Policy.Cancel.

// FoldChunks reduces [0, n) chunk by chunk: fold(lo, hi) reduces one
// non-empty chunk, and the partials are joined in chunk order with
// combine, starting from init. Sequentially it returns
// combine(init, fold(0, n)); for n == 0, or when p is canceled during the
// parallel phase, it returns init.
func FoldChunks[U any](p Policy, n int, init U, fold func(lo, hi int) U, combine func(a, b U) U) U {
	if n == 0 {
		return init
	}
	if !p.parallel(n) {
		return combine(init, fold(0, n))
	}
	chunks := p.Chunks(n)
	partial := make([]U, chunks.Len())
	p.ForEachChunk(chunks, func(ci int) {
		c := chunks.At(ci)
		partial[ci] = fold(c.Lo, c.Hi)
	})
	if p.Canceled() {
		return init
	}
	acc := init
	for _, v := range partial {
		acc = combine(acc, v)
	}
	return acc
}

// ScanChunks is the two-phase parallel prefix over [0, n): phase 1 reduces
// every chunk with fold, a short sequential pass joins the chunk totals
// into each chunk's carry (the combination of every element before it),
// and phase 2 calls scan(lo, hi, carry, ok) on every chunk. ok is false
// only for the chunk starting at 0, which has nothing before it.
// Sequentially, scan runs once over [0, n) with ok false. The parallel
// version therefore performs ~2x the work of the sequential scan, which is
// why the paper's X::inclusive_scan only pays off once the input exceeds
// the last-level cache (Fig. 5).
func ScanChunks[U any](p Policy, n int, fold func(lo, hi int) U, combine func(a, b U) U, scan func(lo, hi int, carry U, ok bool)) {
	if n == 0 {
		return
	}
	var carry U
	if !p.parallel(n) {
		scan(0, n, carry, false)
		return
	}
	chunks := p.Chunks(n)
	sums := make([]U, chunks.Len())
	p.ForEachChunk(chunks, func(ci int) {
		c := chunks.At(ci)
		sums[ci] = fold(c.Lo, c.Hi)
	})
	if p.Canceled() {
		return
	}
	// Turn the chunk totals into carries in place: sums[ci] becomes the
	// combination of chunks 0..ci-1 (sums[0] is unused).
	for ci, s := range sums {
		sums[ci] = carry
		if ci == 0 {
			carry = s
		} else {
			carry = combine(carry, s)
		}
	}
	p.ForEachChunk(chunks, func(ci int) {
		c := chunks.At(ci)
		scan(c.Lo, c.Hi, sums[ci], ci > 0)
	})
}

// StripedFold returns a range fold of at(lo) op ... op at(hi-1) for
// FoldChunks and ScanChunks. It runs four interleaved accumulator stripes,
// which breaks the loop-carried dependence through the op call, so op must
// be associative and commutative, as std::reduce requires. The stripe
// layout is fixed and the same as StripedSum's, so with op = + both
// return the same bits. The range must be non-empty.
func StripedFold[T any](at func(i int) T, op func(a, b T) T) func(lo, hi int) T {
	return func(lo, hi int) T {
		if hi-lo < 4 {
			acc := at(lo)
			for i := lo + 1; i < hi; i++ {
				acc = op(acc, at(i))
			}
			return acc
		}
		a0, a1, a2, a3 := at(lo), at(lo+1), at(lo+2), at(lo+3)
		i := lo + 4
		for ; i+3 < hi; i += 4 {
			a0 = op(a0, at(i))
			a1 = op(a1, at(i+1))
			a2 = op(a2, at(i+2))
			a3 = op(a3, at(i+3))
		}
		acc := op(op(a0, a1), op(a2, a3))
		for ; i < hi; i++ {
			acc = op(acc, at(i))
		}
		return acc
	}
}

// StripedSum is StripedFold with + inlined: the numeric fast path, which
// pays no op call per element.
func StripedSum[T Number](at func(i int) T) func(lo, hi int) T {
	return func(lo, hi int) T {
		var a0, a1, a2, a3 T
		i := lo
		for ; i+3 < hi; i += 4 {
			a0 += at(i)
			a1 += at(i + 1)
			a2 += at(i + 2)
			a3 += at(i + 3)
		}
		acc := (a0 + a1) + (a2 + a3)
		for ; i < hi; i++ {
			acc += at(i)
		}
		return acc
	}
}

// sumSlice is StripedSum over a slice, indexed directly: the fold of Sum
// and InclusiveSum.
func sumSlice[T Number](s []T) T {
	var a0, a1, a2, a3 T
	for ; len(s) >= 4; s = s[4:] {
		a0 += s[0]
		a1 += s[1]
		a2 += s[2]
		a3 += s[3]
	}
	acc := (a0 + a1) + (a2 + a3)
	for _, v := range s {
		acc += v
	}
	return acc
}

// reduceSlice is StripedFold over a non-empty slice, indexed directly: the
// fold of Reduce.
func reduceSlice[T any](s []T, op func(a, b T) T) T {
	if len(s) < 4 {
		acc := s[0]
		for _, v := range s[1:] {
			acc = op(acc, v)
		}
		return acc
	}
	a0, a1, a2, a3 := s[0], s[1], s[2], s[3]
	for s = s[4:]; len(s) >= 4; s = s[4:] {
		a0 = op(a0, s[0])
		a1 = op(a1, s[1])
		a2 = op(a2, s[2])
		a3 = op(a3, s[3])
	}
	acc := op(op(a0, a1), op(a2, a3))
	for _, v := range s {
		acc = op(acc, v)
	}
	return acc
}

// transformFold returns the unstriped range fold of transform over src,
// the phase-1 fold of the transform reductions and scans. It keeps the
// element order, so op need only be associative.
func transformFold[T, U any](src []T, op func(a, b U) U, transform func(T) U) func(lo, hi int) U {
	return func(lo, hi int) U {
		acc := transform(src[lo])
		for i := lo + 1; i < hi; i++ {
			acc = op(acc, transform(src[i]))
		}
		return acc
	}
}

// add is + as a combine function.
func add[T Number](a, b T) T { return a + b }
