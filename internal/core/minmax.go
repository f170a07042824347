package core

// MinElement returns the index of the first minimum element of s under
// less, or -1 for an empty slice (std::min_element).
func MinElement[T any](p Policy, s []T, less func(a, b T) bool) int {
	return extremeElement(p, s, less, false)
}

// MaxElement returns the index of the first maximum element of s under
// less, or -1 for an empty slice (std::max_element).
func MaxElement[T any](p Policy, s []T, less func(a, b T) bool) int {
	return extremeElement(p, s, less, true)
}

// extremeElement finds the first index holding the extreme value. For max,
// C++ returns the *first* of equal maxima, which the strict "is better"
// predicate below preserves across chunk combination.
func extremeElement[T any](p Policy, s []T, less func(a, b T) bool, wantMax bool) int {
	better := func(a, b T) bool { // a strictly better than b
		if wantMax {
			return less(b, a)
		}
		return less(a, b)
	}
	return FoldChunks(p, len(s), -1, func(lo, hi int) int {
		best := lo
		for i := lo + 1; i < hi; i++ {
			if better(s[i], s[best]) {
				best = i
			}
		}
		return best
	}, func(best, idx int) int {
		if best < 0 || better(s[idx], s[best]) {
			return idx
		}
		return best
	})
}

// MinMaxElement returns the indices of the first minimum and the last
// maximum element of s under less, or (-1, -1) for an empty slice
// (std::minmax_element, which returns the *last* maximum).
func MinMaxElement[T any](p Policy, s []T, less func(a, b T) bool) (minIdx, maxIdx int) {
	type mm struct{ lo, hi int }
	res := FoldChunks(p, len(s), mm{-1, -1}, func(lo, hi int) mm {
		r := mm{lo, lo}
		for i := lo + 1; i < hi; i++ {
			if less(s[i], s[r.lo]) {
				r.lo = i
			}
			if !less(s[i], s[r.hi]) { // last max: ties move forward
				r.hi = i
			}
		}
		return r
	}, func(best, r mm) mm {
		if best.lo < 0 {
			return r
		}
		if less(s[r.lo], s[best.lo]) {
			best.lo = r.lo
		}
		if !less(s[r.hi], s[best.hi]) {
			best.hi = r.hi
		}
		return best
	})
	return res.lo, res.hi
}
