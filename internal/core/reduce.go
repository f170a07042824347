package core

// Reduce combines all elements of s with op, starting from init
// (std::reduce). As with std::reduce, op must be associative and
// commutative: the combination order is unspecified, since every chunk is
// folded in four interleaved stripes. It is deterministic for a fixed
// policy: the stripe layout is fixed and per-chunk partials are folded in
// chunk order.
func Reduce[T any](p Policy, s []T, init T, op func(a, b T) T) T {
	return FoldChunks(p, len(s), init, func(lo, hi int) T { return reduceSlice(s[lo:hi], op) }, op)
}

// Sum returns init plus the sum of all elements of s, the common
// std::reduce(par, v.begin(), v.end()) case the paper benchmarks. It is
// Reduce with + inlined into the striped fold.
func Sum[T Number](p Policy, s []T, init T) T {
	return FoldChunks(p, len(s), init, func(lo, hi int) T { return sumSlice(s[lo:hi]) }, add[T])
}

// Number is the constraint for the arithmetic convenience wrappers.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// TransformReduce applies transform to every element and reduces the
// results with op starting from init (std::transform_reduce, unary form).
// Each chunk is folded in element order.
func TransformReduce[T, U any](p Policy, s []T, init U, op func(a, b U) U, transform func(T) U) U {
	return FoldChunks(p, len(s), init, transformFold(s, op, transform), op)
}

// TransformReduceBinary applies transform pairwise to a and b and reduces
// with op starting from init (std::transform_reduce, binary form — the
// parallel inner product). a and b must have equal length.
func TransformReduceBinary[T, V, U any](p Policy, a []T, b []V, init U, op func(x, y U) U, transform func(T, V) U) U {
	if len(a) != len(b) {
		panic("core.TransformReduceBinary: length mismatch")
	}
	return FoldChunks(p, len(a), init, func(lo, hi int) U {
		acc := transform(a[lo], b[lo])
		for i := lo + 1; i < hi; i++ {
			acc = op(acc, transform(a[i], b[i]))
		}
		return acc
	}, op)
}
