package core

// This file documents the coverage of the C++17 parallel-STL surface
// (the algorithms accepting execution policies, paper Table 1) by this
// package. Function names follow Go conventions; the mapping is:
//
//	C++ algorithm               Go function(s)
//	-------------------------   -----------------------------------------
//	adjacent_difference         AdjacentDifference
//	adjacent_find               AdjacentFind
//	all_of / any_of / none_of   AllOf / AnyOf / NoneOf
//	copy / copy_n               Copy / CopyN
//	copy_if                     CopyIf
//	count / count_if            Count / CountIf
//	equal                       Equal / EqualFunc
//	exclusive_scan              ExclusiveScan
//	fill / fill_n               Fill / FillN
//	find / find_if /
//	  find_if_not               Find / FindIf / FindIfNot
//	find_end / find_first_of    FindEnd / FindFirstOf
//	for_each / for_each_n       ForEach / ForEachIndex / ForEachN
//	generate / generate_n       Generate / GenerateN
//	includes                    Includes
//	inclusive_scan              InclusiveScan / InclusiveSum
//	inplace_merge               InplaceMerge
//	is_heap / is_heap_until     IsHeap / IsHeapUntil
//	is_partitioned              IsPartitioned
//	is_sorted / is_sorted_until IsSorted / IsSortedUntil
//	lexicographical_compare     LexicographicalCompare
//	max_element / min_element   MaxElement / MinElement
//	minmax_element              MinMaxElement
//	merge                       Merge
//	mismatch                    Mismatch / MismatchFunc
//	move                        Move
//	nth_element                 NthElement
//	partial_sort (+_copy)       PartialSort / PartialSortCopy
//	partition (+_copy)          Partition / PartitionCopy
//	partition_point             PartitionPoint
//	reduce                      Reduce / Sum
//	remove / remove_if          Remove / RemoveIf
//	remove_copy_if              RemoveCopyIf
//	replace / replace_if        Replace / ReplaceIf
//	replace_copy                ReplaceCopy
//	reverse / reverse_copy      Reverse / ReverseCopy
//	rotate / rotate_copy        Rotate / RotateCopy
//	search / search_n           Search / SearchN
//	set_difference etc.         SetDifference / SetIntersection /
//	                            SetSymmetricDifference / SetUnion
//	sort / stable_sort          Sort / SortFunc / StableSort
//	stable_partition            StablePartition
//	swap_ranges                 SwapRanges
//	transform                   Transform / TransformBinary
//	transform_exclusive_scan    TransformExclusiveScan
//	transform_inclusive_scan    TransformInclusiveScan
//	transform_reduce            TransformReduce / TransformReduceBinary
//	unique                      Unique
//
// Every reduction and scan runs through one chunk-fold engine (fold.go):
// FoldChunks drives Reduce, Sum, TransformReduce(Binary), CountIf and the
// min/max searches, and ScanChunks drives the four inclusive/exclusive
// scans and InclusiveSum. Sum, InclusiveSum and Reduce fold each chunk in
// four interleaved stripes, with + inlined for the Number forms, which
// lifts the closure-per-element cost the identity-transform chain used to
// pay. internal/pipeline's terminals call the same drivers with the
// exported StripedSum/StripedFold over their fused evaluator; only its
// From/Generate + two-map Sum loops stay hand-specialised, because the
// general evaluator costs one more indirect call per element there. See
// DESIGN.md §9.
//
// Every early-exit search runs through one block-scanning engine
// (findFirst in find.go): Find, FindIf(Not), FindFirstOf, AdjacentFind,
// Search, SearchN, FindEnd (over the mirrored index space), Mismatch(Func),
// LexicographicalCompare and IsHeapUntil each pass a range loop that
// returns the first match in [lo, hi), which the engine runs on findBlock
// blocks between checks of the shared best-index bound. Sort, SortFunc and
// StableSort share one mergesort that takes its leaf sort as a function:
// Sort's leaf is slices.Sort and its merges use cmp.Less, so Sort orders
// NaNs first, as slices.Sort does.
//
// Not applicable in Go (no raw-memory object lifetimes): destroy,
// destroy_n, uninitialized_*. Go's garbage-collected slices make these
// no-ops; callers simply allocate with make.
