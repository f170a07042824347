package core

// The scans run on ScanChunks, the two-phase parallel prefix (fold.go).

// InclusiveScan writes the inclusive prefix combination of src into dst
// using op (std::inclusive_scan): dst[i] = src[0] op ... op src[i].
// dst must have the same length as src; dst may be src itself for an
// in-place scan. op must be associative.
func InclusiveScan[T any](p Policy, dst, src []T, op func(a, b T) T) {
	TransformInclusiveScan(p, dst, src, op, func(v T) T { return v })
}

// InclusiveSum is InclusiveScan with addition, the default
// std::inclusive_scan the paper benchmarks. + is inlined into both
// phases, and phase 1 folds each chunk in Sum's four stripes.
func InclusiveSum[T Number](p Policy, dst, src []T) {
	if len(dst) != len(src) {
		panic("core.InclusiveSum: length mismatch")
	}
	ScanChunks(p, len(src), func(lo, hi int) T { return sumSlice(src[lo:hi]) }, add[T],
		func(lo, hi int, carry T, ok bool) {
			acc := src[lo]
			if ok {
				acc = carry + acc
			}
			dst[lo] = acc
			for i := lo + 1; i < hi; i++ {
				acc += src[i]
				dst[i] = acc
			}
		})
}

// TransformInclusiveScan writes the inclusive prefix combination of
// transform(src[i]) into dst (std::transform_inclusive_scan).
func TransformInclusiveScan[T, U any](p Policy, dst []U, src []T, op func(a, b U) U, transform func(T) U) {
	if len(dst) != len(src) {
		panic("core.TransformInclusiveScan: length mismatch")
	}
	ScanChunks(p, len(src), transformFold(src, op, transform), op,
		func(lo, hi int, carry U, ok bool) {
			acc := transform(src[lo])
			if ok {
				acc = op(carry, acc)
			}
			dst[lo] = acc
			for i := lo + 1; i < hi; i++ {
				acc = op(acc, transform(src[i]))
				dst[i] = acc
			}
		})
}

// ExclusiveScan writes the exclusive prefix combination of src into dst
// starting from init (std::exclusive_scan): dst[i] = init op src[0] op ...
// op src[i-1]. dst may be src itself.
func ExclusiveScan[T any](p Policy, dst, src []T, init T, op func(a, b T) T) {
	TransformExclusiveScan(p, dst, src, init, op, func(v T) T { return v })
}

// TransformExclusiveScan writes the exclusive prefix combination of
// transform(src[i]) into dst starting from init
// (std::transform_exclusive_scan).
func TransformExclusiveScan[T, U any](p Policy, dst []U, src []T, init U, op func(a, b U) U, transform func(T) U) {
	if len(dst) != len(src) {
		panic("core.TransformExclusiveScan: length mismatch")
	}
	ScanChunks(p, len(src), transformFold(src, op, transform), op,
		func(lo, hi int, carry U, ok bool) {
			acc := init
			if ok {
				acc = op(init, carry)
			}
			for i := lo; i < hi; i++ {
				next := op(acc, transform(src[i]))
				dst[i] = acc
				acc = next
			}
		})
}

// AdjacentDifference writes dst[0] = src[0] and dst[i] = op(src[i],
// src[i-1]) for i > 0 (std::adjacent_difference). dst must have the same
// length as src. If dst aliases src, the scan runs sequentially, since the
// parallel version would race on neighbouring chunk boundaries.
func AdjacentDifference[T any](p Policy, dst, src []T, op func(cur, prev T) T) {
	if len(dst) != len(src) {
		panic("core.AdjacentDifference: length mismatch")
	}
	n := len(src)
	if n == 0 {
		return
	}
	aliased := &dst[0] == &src[0]
	if aliased || !p.parallel(n) {
		prev := src[0]
		dst[0] = prev
		for i := 1; i < n; i++ {
			cur := src[i]
			dst[i] = op(cur, prev)
			prev = cur
		}
		return
	}
	p.ParallelFor(n, func(_, lo, hi int) {
		if lo == 0 {
			dst[0] = src[0]
			lo = 1
		}
		for i := lo; i < hi; i++ {
			dst[i] = op(src[i], src[i-1])
		}
	})
}
