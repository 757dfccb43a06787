// Package hotallocok exercises the hotalloc analyzer's negative cases:
// unmarked functions, the append reuse idiom, and an allow directive.
package hotallocok

import (
	"slices"
	"sort"
)

// NotHot allocates freely: it carries no kappa:hotpath mark.
func NotHot(n int) []int {
	return make([]int, n)
}

//kappa:hotpath
func Reuse(buf []int, n int) []int {
	buf = append(buf[:0], n)
	v := pair{1, 2} // value struct literals stay legal
	_ = v
	//kappa:allow hotalloc grow-once scratch, documented for the selftest
	tmp := make([]int, n)
	_ = tmp
	return buf
}

type pair struct{ a, b int }

// Order uses the typed generic sort, which neither reflects nor boxes; only
// package sort's Slice, SliceStable and Sort are findings.
//
//kappa:hotpath
func Order(ps []pair) {
	slices.SortFunc(ps, func(x, y pair) int { return x.a - y.a })
	sort.Ints(nil)
}
