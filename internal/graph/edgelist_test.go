package graph

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// referenceCSR is Builder.Build as it was before FromEdgeLists: scatter,
// sort.Sort every row through a boxed two-slice struct, merge runs. Kept as
// the oracle FromEdgeLists must agree with on every input.
func referenceCSR(n int, lists []EdgeList) (xadj, adj []int32, ewgt []int64) {
	var us, vs []int32
	var ws []int64
	for _, l := range lists {
		for i, u := range l.U {
			if u != l.V[i] {
				us, vs, ws = append(us, u), append(vs, l.V[i]), append(ws, l.W[i])
			}
		}
	}
	deg := make([]int32, n+1)
	for i := range us {
		deg[us[i]+1]++
		deg[vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	adj = make([]int32, len(us)*2)
	ewgt = make([]int64, len(us)*2)
	fill := make([]int32, n)
	for i := range us {
		u, v, w := us[i], vs[i], ws[i]
		adj[deg[u]+fill[u]], ewgt[deg[u]+fill[u]] = v, w
		fill[u]++
		adj[deg[v]+fill[v]], ewgt[deg[v]+fill[v]] = u, w
		fill[v]++
	}
	outAdj, outW := adj[:0], ewgt[:0]
	xadj = make([]int32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := deg[v], deg[v+1]
		sort.Sort(refSegment{adj[lo:hi], ewgt[lo:hi]})
		for i := lo; i < hi; {
			t, w := adj[i], ewgt[i]
			j := i + 1
			for j < hi && adj[j] == t {
				w += ewgt[j]
				j++
			}
			outAdj, outW = append(outAdj, t), append(outW, w)
			i = j
		}
		xadj[v+1] = int32(len(outAdj))
	}
	return xadj, outAdj, outW
}

type refSegment struct {
	adj []int32
	w   []int64
}

func (s refSegment) Len() int           { return len(s.adj) }
func (s refSegment) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s refSegment) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// randomLists draws m edges over n nodes into parts lists; hub > 0 routes
// that share of the edges through node 0, so one row is far longer than
// insertionMax and unsorted.
func randomLists(r *rng.RNG, n, m, parts int, hub float64) []EdgeList {
	lists := make([]EdgeList, parts)
	for e := 0; e < m; e++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if r.Float64() < hub {
			u = 0
		}
		l := &lists[r.Intn(parts)]
		l.U, l.V, l.W = append(l.U, u), append(l.V, v), append(l.W, int64(1+r.Intn(9)))
	}
	return lists
}

// checkAgainstReference builds lists over every worker count given and holds
// each result against the reference build — and, the fused validation being
// the point, against FromCSR of the same arrays: a graph adopted through
// FromCSRTrusted must be the graph FromCSR's second walk would have made.
func checkAgainstReference(t *testing.T, name string, nwgt []int64, lists []EdgeList, workers ...int) {
	t.Helper()
	wx, wa, ww := referenceCSR(len(nwgt), lists)
	for _, w := range workers {
		g, err := fromEdgeLists(slices.Clone(nwgt), lists, w)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		if !slices.Equal(g.xadj, wx) || !slices.Equal(g.adj, wa) || !slices.Equal(g.ewgt, ww) {
			t.Fatalf("%s workers=%d: CSR differs from the reference build", name, w)
		}
		want, err := FromCSR(slices.Clone(g.xadj), slices.Clone(g.adj), slices.Clone(g.ewgt), slices.Clone(nwgt))
		if err != nil {
			t.Fatalf("%s workers=%d: FromCSR refuses the arrays: %v", name, w, err)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s workers=%d: adopted graph differs from FromCSR of the same arrays:\n%+v\n%+v", name, w, g, want)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
	}
}

func TestFromEdgeListsMatchesReference(t *testing.T) {
	r := rng.New(7)
	cases := map[string]struct {
		n     int
		lists []EdgeList
	}{
		"empty":           {5, nil},
		"no nodes":        {0, []EdgeList{{}}},
		"sparse":          {200, randomLists(r, 200, 300, 1, 0)},
		"parallel edges":  {12, randomLists(r, 12, 400, 3, 0)},
		"long hub row":    {300, randomLists(r, 300, 2000, 2, 0.3)},
		"only self loops": {3, []EdgeList{{U: []int32{1, 2}, V: []int32{1, 2}, W: []int64{4, 5}}}},
		"sorted input": {40, func() []EdgeList {
			var l EdgeList
			for u := int32(0); u < 40; u++ {
				for v := u + 1; v < 40; v++ {
					l.U, l.V, l.W = append(l.U, u), append(l.V, v), append(l.W, int64(u+v))
				}
			}
			return []EdgeList{l}
		}()},
	}
	for name, tc := range cases {
		nwgt := make([]int64, tc.n)
		for i := range nwgt {
			nwgt[i] = int64(i%3) + 1
		}
		checkAgainstReference(t, name, nwgt, tc.lists, 1, 2, 3, 7)
		g, err := FromEdgeLists(nwgt, tc.lists)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.AdjSorted() {
			t.Errorf("%s: rows not detected as sorted", name)
		}
	}
}

// FuzzFromEdgeListsMatchesReference draws edge lists from the fuzz input —
// self loops, parallel edges within and across lists, empty rows, a hub row
// longer than insertionMax — and builds them over one range and over several,
// the half-edge floor out of the way: every count must produce the reference
// build and the graph FromCSR makes of the same arrays.
func FuzzFromEdgeListsMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(200), uint8(2), uint8(0))
	f.Add(uint64(2), uint16(5), uint16(300), uint8(3), uint8(0))
	f.Add(uint64(3), uint16(120), uint16(900), uint8(1), uint8(80))
	f.Add(uint64(4), uint16(0), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(5), uint16(300), uint16(10), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, parts, hub uint8) {
		nodes, edges := int(n%512), int(m%4096)
		if nodes == 0 {
			edges = 0
		}
		lists := make([]EdgeList, 1+parts%4)
		if edges > 0 {
			lists = randomLists(rng.New(seed), nodes, edges, len(lists), float64(hub)/255)
		}
		nwgt := make([]int64, nodes)
		for i := range nwgt {
			nwgt[i] = int64(i % 4)
		}
		checkAgainstReference(t, "fuzz", nwgt, lists, 1, 2, 3, 7)
	})
}

// TestFromEdgeListsRejectsOutOfRange pins what the passes refuse, on one range and on
// several: an endpoint outside the graph (the count pass), lists of unequal
// lengths, a weight that is not positive (the scatter pass), a negative node
// weight, and weights that merge to a sum that is not positive — each an
// *InputError naming the list, here the second of two, or the node at fault.
func TestFromEdgeListsRejectsOutOfRange(t *testing.T) {
	for name, tc := range map[string]struct {
		nwgt       []int64
		l          EdgeList
		list, node int
	}{
		"negative id":     {make([]int64, 2), EdgeList{U: []int32{-1}, V: []int32{0}, W: []int64{1}}, 1, -1},
		"id past the end": {make([]int64, 2), EdgeList{U: []int32{0}, V: []int32{2}, W: []int64{1}}, 1, -1},
		"short targets":   {make([]int64, 2), EdgeList{U: []int32{0, 1}, V: []int32{1}, W: []int64{1, 1}}, 1, -1},
		"short weights":   {make([]int64, 2), EdgeList{U: []int32{0}, V: []int32{1}}, 1, -1},
		"zero weight":     {make([]int64, 2), EdgeList{U: []int32{0}, V: []int32{1}, W: []int64{0}}, 1, -1},
		"node weight":     {[]int64{1, -1}, EdgeList{}, -1, 1},
		"merged weight":   {make([]int64, 2), EdgeList{U: []int32{0, 1}, V: []int32{1, 0}, W: []int64{math.MaxInt64, 1}}, -1, -1},
	} {
		for _, workers := range []int{1, 2} {
			honest := EdgeList{U: []int32{0}, V: []int32{1}, W: []int64{1}}
			g, err := fromEdgeLists(tc.nwgt, []EdgeList{honest, tc.l}, workers)
			var in *InputError
			if !errors.As(err, &in) {
				t.Errorf("%s workers=%d: got %+v, %v, want an *InputError", name, workers, g, err)
			} else if in.List != tc.list || in.Node != tc.node {
				t.Errorf("%s workers=%d: blamed on list %d, node %d (%v)", name, workers, in.List, in.Node, err)
			}
		}
	}
}

// TestRowSorterStable pins what merging relies on: equal neighbours stay in
// input order on both the insertion and the packed-key path.
func TestRowSorterStable(t *testing.T) {
	r := rng.New(3)
	var rs RowSorter
	for _, n := range []int{0, 1, 2, insertionMax, insertionMax + 1, 500} {
		adj := make([]int32, n)
		w := make([]int64, n)
		for i := range adj {
			adj[i], w[i] = int32(r.Intn(n/3+1)), int64(i)
		}
		rs.Sort(adj, w)
		for i := 1; i < n; i++ {
			if adj[i-1] > adj[i] || (adj[i-1] == adj[i] && w[i-1] > w[i]) {
				t.Fatalf("n=%d: entry %d out of order", n, i)
			}
		}
	}
}

// BenchmarkFromEdgeLists is the measurement behind edgeListHalfEdges: a
// mesh-like edge list (every node joined to a few close ids, in two lists the
// way a two-PE stitch gets them, a fifth of the edges parallel) built on one
// range and on two, at sizes around the floor.
func BenchmarkFromEdgeLists(b *testing.B) {
	for _, half := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18} {
		n := half / 10
		r := rng.New(uint64(half))
		lists := make([]EdgeList, 2)
		for e := 0; e < half/2; e++ {
			u := r.Intn(n)
			v := (u + 1 + r.Intn(6)) % n
			l := &lists[2*u/n]
			l.U, l.V, l.W = append(l.U, int32(u)), append(l.V, int32(v)), append(l.W, int64(1+r.Intn(9)))
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("half=%d/workers=%d", half, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := fromEdgeLists(make([]int64, n), lists, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
