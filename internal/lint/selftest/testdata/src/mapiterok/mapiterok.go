// Package mapiterok exercises the mapiter analyzer's negative cases: the
// collect-then-sort idiom and order-insensitive loop bodies.
package mapiterok

import (
	"slices"
	"sort"
	"strings"
)

// Keys collects then sorts: the accepted deterministic shape.
func Keys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Sum only folds commutatively; no order-sensitive sink.
func Sum(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// SortedFunc clears the append through a slices.SortFunc call on the target.
func SortedFunc(m map[int]string) []string {
	var vals []string
	for _, v := range m {
		vals = append(vals, v)
	}
	slices.SortFunc(vals, strings.Compare)
	return vals
}
