// Package hotallocbad exercises the hotalloc analyzer's positive cases:
// every allocating construct inside a //kappa:hotpath function.
package hotallocbad

import (
	"fmt"
	"sort"
)

type pair struct{ a, b int }

//kappa:hotpath
func Build(n int, buf []byte) string {
	tmp := make([]byte, 0, n) // want hotalloc
	_ = tmp
	s := fmt.Sprintf("%d", n) // want hotalloc
	b := []byte(s)            // want hotalloc
	_ = b
	p := &pair{1, 2} // want hotalloc
	_ = p
	xs := []int{1, 2} // want hotalloc
	_ = xs
	var out []int
	out = append(out, n) // want hotalloc
	_ = out
	return s
}

type byA []pair

func (s byA) Len() int           { return len(s) }
func (s byA) Less(i, j int) bool { return s[i].a < s[j].a }
func (s byA) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Order sorts through package sort's reflection- and interface-based entry
// points: each allocates per call.
//
//kappa:hotpath
func Order(ps []pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].a < ps[j].a })       // want hotalloc
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].b < ps[j].b }) // want hotalloc
	sort.Sort(byA(ps))                                                     // want hotalloc
}
