package graph

import (
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
		wx, wa, ww := referenceCSR(tc.n, tc.lists)
		g := FromEdgeLists(nwgt, tc.lists)
		if !slices.Equal(g.xadj, wx) || !slices.Equal(g.adj, wa) || !slices.Equal(g.ewgt, ww) {
			t.Errorf("%s: CSR differs from the reference build", name)
		}
		if !g.AdjSorted() {
			t.Errorf("%s: rows not detected as sorted", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFromEdgeListsRejectsOutOfRange(t *testing.T) {
	for _, l := range []EdgeList{
		{U: []int32{-1}, V: []int32{0}, W: []int64{1}},
		{U: []int32{0}, V: []int32{2}, W: []int64{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge {%d,%d} on 2 nodes accepted", l.U[0], l.V[0])
				}
			}()
			FromEdgeLists(make([]int64, 2), []EdgeList{l})
		}()
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
