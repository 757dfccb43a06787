package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// referenceCSR is Builder.Build as it was before FromEdgeList: scatter,
// sort.Sort every row through a boxed two-slice struct, merge runs. Kept as
// the oracle FromEdgeList must agree with on every input; nil weights read as
// ones.
func referenceCSR(n int, l EdgeList) (xadj, adj []int32, ewgt []int64) {
	var us, vs []int32
	var ws []int64
	for i, u := range l.U {
		if u != l.V[i] {
			w := int64(1)
			if l.W != nil {
				w = l.W[i]
			}
			us, vs, ws = append(us, u), append(vs, l.V[i]), append(ws, w)
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

// randomList draws m edges over n nodes with weights in [1, maxW]; hub > 0
// routes that share of the edges through node 0, so one row is far longer
// than insertionMax and unsorted. noWeights leaves the list without weights.
func randomList(r *rng.RNG, n, m int, hub float64, maxW int, noWeights bool) EdgeList {
	var l EdgeList
	for e := 0; e < m; e++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if r.Float64() < hub {
			u = 0
		}
		l.U, l.V, l.W = append(l.U, u), append(l.V, v), append(l.W, int64(1+r.Intn(maxW)))
	}
	if noWeights {
		l.W = nil
	}
	return l
}

// checkAgainstReference builds l over every worker count given and holds
// each result against FromCSR of the reference build's arrays: its rows, and,
// the fused validation being the point, the aggregates FromCSR's second walk
// would have summed. Weights that all come out 1 must make a unit graph.
func checkAgainstReference(t *testing.T, name string, nwgt []int64, l EdgeList, workers ...int) {
	t.Helper()
	wx, wa, ww := referenceCSR(len(nwgt), l)
	unit := !slices.ContainsFunc(ww, func(w int64) bool { return w != 1 })
	for _, w := range workers {
		g, err := fromEdgeList(slices.Clone(nwgt), l, w)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		want, err := FromCSR(slices.Clone(wx), slices.Clone(wa), slices.Clone(ww), slices.Clone(nwgt))
		if err != nil {
			t.Fatalf("%s workers=%d: FromCSR refuses the reference arrays: %v", name, w, err)
		}
		if d := Diff(g, want); d != "" {
			t.Fatalf("%s workers=%d: built graph differs from FromCSR of the reference build: %s", name, w, d)
		}
		if g.UnitEdgeWeights() != unit {
			t.Fatalf("%s workers=%d: unit graph %v, weights all 1 %v", name, w, g.UnitEdgeWeights(), unit)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
	}
}

func TestFromEdgeListsMatchesReference(t *testing.T) {
	r := rng.New(7)
	cases := map[string]struct {
		n int
		l EdgeList
	}{
		"empty":           {5, EdgeList{}},
		"no nodes":        {0, EdgeList{}},
		"sparse":          {200, randomList(r, 200, 300, 0, 9, false)},
		"unit":            {200, randomList(r, 200, 30, 0, 1, false)},
		"merged units":    {12, randomList(r, 12, 400, 0, 1, false)},
		"parallel edges":  {12, randomList(r, 12, 400, 0, 9, false)},
		"long hub row":    {300, randomList(r, 300, 2000, 0.3, 9, false)},
		"only self loops": {3, EdgeList{U: []int32{1, 2}, V: []int32{1, 2}, W: []int64{4, 5}}},
		"nil weights":     {200, randomList(r, 200, 30, 0, 1, true)},
		"nil hub row":     {300, randomList(r, 300, 600, 0.3, 1, true)},
		"nil duplicates":  {3, EdgeList{U: []int32{0, 1, 2, 0}, V: []int32{1, 0, 2, 2}}},
		"sorted input": {40, func() EdgeList {
			var l EdgeList
			for u := int32(0); u < 40; u++ {
				for v := u + 1; v < 40; v++ {
					l.U, l.V, l.W = append(l.U, u), append(l.V, v), append(l.W, int64(u+v))
				}
			}
			return l
		}()},
	}
	for name, tc := range cases {
		nwgt := make([]int64, tc.n)
		for i := range nwgt {
			nwgt[i] = int64(i%3) + 1
		}
		checkAgainstReference(t, name, nwgt, tc.l, 1, 2, 3, 7)
	}
}

// FuzzFromEdgeListsMatchesReference draws an edge list from the fuzz input —
// self loops, parallel edges, empty rows, a hub row longer than insertionMax
// — and builds it over one range and over several, the half-edge floor out of
// the way, with unit weights for even seeds and, for seeds whose next bit is
// set, with nil weights (parallel edges then merge to 2): every count must
// produce the graph FromCSR makes of the reference build's arrays.
func FuzzFromEdgeListsMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(200), uint8(0))
	f.Add(uint64(2), uint16(5), uint16(300), uint8(0))
	f.Add(uint64(3), uint16(120), uint16(900), uint8(80))
	f.Add(uint64(4), uint16(0), uint16(0), uint8(0))
	f.Add(uint64(5), uint16(300), uint16(10), uint8(0))
	f.Add(uint64(2), uint16(200), uint16(30), uint8(0))  // nil weights, no parallel edge
	f.Add(uint64(6), uint16(12), uint16(400), uint8(0))  // nil weights merging to 2 and more
	f.Add(uint64(7), uint16(40), uint16(300), uint8(40)) // nil weights, a hub row
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, hub uint8) {
		nodes, edges := int(n%512), int(m%4096)
		if nodes == 0 {
			edges = 0
		}
		var l EdgeList
		if edges > 0 {
			l = randomList(rng.New(seed), nodes, edges, float64(hub)/255, 1+8*int(seed%2), seed/2%2 == 1)
		}
		nwgt := make([]int64, nodes)
		for i := range nwgt {
			nwgt[i] = int64(i % 4)
		}
		checkAgainstReference(t, "fuzz", nwgt, l, 1, 2, 3, 7)
	})
}

// TestFromEdgeListsRejectsOutOfRange pins what the passes refuse, on one
// range and on several: an endpoint outside the graph (the count pass),
// arrays of unequal lengths, a weight that is not positive (the scatter
// pass), a negative node weight, and weights that merge to a sum that is not
// positive — each an error that names what is wrong.
func TestFromEdgeListsRejectsOutOfRange(t *testing.T) {
	for name, tc := range map[string]struct {
		nwgt []int64
		l    EdgeList
		want string
	}{
		"negative id":     {make([]int64, 2), EdgeList{U: []int32{0, -1}, V: []int32{1, 0}, W: []int64{1, 1}}, "edge {-1,0} out of range [0,2)"},
		"id past the end": {make([]int64, 2), EdgeList{U: []int32{0, 0}, V: []int32{1, 2}, W: []int64{1, 1}}, "edge {0,2} out of range [0,2)"},
		"short targets":   {make([]int64, 2), EdgeList{U: []int32{0, 1}, V: []int32{1}, W: []int64{1, 1}}, "2 sources, 1 targets, 2 weights"},
		"short weights":   {make([]int64, 2), EdgeList{U: []int32{0}, V: []int32{1}, W: []int64{}}, "1 sources, 1 targets, 0 weights"},
		"zero weight":     {make([]int64, 2), EdgeList{U: []int32{0, 0}, V: []int32{1, 1}, W: []int64{1, 0}}, "non-positive edge weight"},
		"node weight":     {[]int64{1, -1}, EdgeList{U: []int32{0}, V: []int32{1}, W: []int64{1}}, "node 1 has negative weight -1"},
		"merged weight":   {make([]int64, 2), EdgeList{U: []int32{0, 1}, V: []int32{1, 0}, W: []int64{math.MaxInt64, 1}}, "non-positive edge weight"},
	} {
		for _, workers := range []int{1, 2} {
			g, err := fromEdgeList(tc.nwgt, tc.l, workers)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s workers=%d: got %+v, %v, want an error naming %q", name, workers, g, err, tc.want)
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

// BenchmarkFromEdgeList is the measurement behind edgeListHalfEdges: a
// mesh-like edge list (every node joined to a few close ids, a fifth of the
// edges parallel) built on one range and on two, at sizes around the floor.
func BenchmarkFromEdgeList(b *testing.B) {
	for _, half := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18} {
		n := half / 10
		r := rng.New(uint64(half))
		var l EdgeList
		for e := 0; e < half/2; e++ {
			u := r.Intn(n)
			v := (u + 1 + r.Intn(6)) % n
			l.U, l.V, l.W = append(l.U, int32(u)), append(l.V, int32(v)), append(l.W, int64(1+r.Intn(9)))
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("half=%d/workers=%d", half, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := fromEdgeList(make([]int64, n), l, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
