// The stitch oracle lives in the external test package so its fuzz target can
// decode parts with wire.DecodeContraction (wire imports coarsen; an internal
// test would cycle).
package coarsen_test

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/rng"
	"repro/internal/wire"
)

// referencePart is a part as workers shipped it before the coordinator
// contracted its own level: besides the map, the weights and coordinates of
// the PE's coarse nodes and its share of the coarse edges.
type referencePart struct {
	coarsen.PEContraction
	Weights      []int64
	CX, CY, CZ   []float64
	EdgeU, EdgeV []int32
	EdgeW        []int64
}

// referenceContractSubgraph is the per-PE kernel that built those parts,
// kept verbatim as the oracle: steps 1–3 number the coarse nodes as
// coarsen.ContractSubgraph does, step 4 broadcasts every boundary node's
// coarse id to the PEs that hold it as a ghost, and step 5 emits each fine
// edge once, from the owner of its smaller-global-id endpoint.
func referenceContractSubgraph(sg *dist.Subgraph, m matching.Matching, ex dist.Transport, pe int) *referencePart {
	g := sg.Local
	owned := sg.NumOwned
	p := &referencePart{}

	const remote = int32(-2)
	cLocal := make([]int32, owned)
	nOwn := int32(0)
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		switch {
		case lu < 0:
			cLocal[lv] = nOwn
			nOwn++
		case int(lu) < owned:
			if lu > lv {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = cLocal[lu]
			}
		default:
			if sg.ToGlobal(lv) < sg.ToGlobal(lu) {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = remote
			}
		}
	}

	countOut := make([][]dist.Msg, ex.PEs())
	for q := range countOut {
		countOut[q] = []dist.Msg{{Kind: dist.MsgCount, W: int64(nOwn)}}
	}
	base := int32(0)
	for i, msg := range ex.Exchange(pe, countOut) {
		if i < pe {
			base += int32(msg.W)
		}
	}
	p.FirstCoarse, p.NumCoarse = base, nOwn

	p.Weights = make([]int64, nOwn)
	hasCoords := g.HasCoords()
	if hasCoords {
		p.CX = make([]float64, nOwn)
		p.CY = make([]float64, nOwn)
		if g.CoordDims() == 3 {
			p.CZ = make([]float64, nOwn)
		}
	}
	members := make([]int32, nOwn)
	addMember := func(c, lv int32) {
		p.Weights[c] += g.NodeWeight(lv)
		if hasCoords {
			x, y, z := g.Coord3(lv)
			p.CX[c] += x
			p.CY[c] += y
			if p.CZ != nil {
				p.CZ[c] += z
			}
		}
		members[c]++
	}
	for lv := int32(0); lv < int32(owned); lv++ {
		c := cLocal[lv]
		if c == remote {
			continue
		}
		addMember(c, lv)
		if lu := m[lv]; lu >= 0 && int(lu) >= owned {
			addMember(c, lu)
		}
	}
	for c := int32(0); c < nOwn; c++ {
		if hasCoords && members[c] > 0 {
			p.CX[c] /= float64(members[c])
			p.CY[c] /= float64(members[c])
			if p.CZ != nil {
				p.CZ[c] /= float64(members[c])
			}
		}
	}

	crossOut := make([][]dist.Msg, ex.PEs())
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		if lu >= 0 && int(lu) >= owned && cLocal[lv] != remote {
			q := sg.GhostOwner[int(lu)-owned]
			crossOut[q] = append(crossOut[q], dist.Msg{Kind: dist.MsgCoarseID, A: sg.ToGlobal(lu), B: base + cLocal[lv]})
		}
	}
	cGlobal := make([]int32, owned)
	for lv := range cGlobal {
		if cLocal[lv] == remote {
			cGlobal[lv] = -1
		} else {
			cGlobal[lv] = base + cLocal[lv]
		}
	}
	for _, msg := range ex.Exchange(pe, crossOut) {
		if lv, ok := sg.ToLocal(msg.A); msg.Kind == dist.MsgCoarseID && ok && int(lv) < owned {
			cGlobal[lv] = msg.B
		}
	}

	bcastOut := make([][]dist.Msg, ex.PEs())
	peerOff, peers := sg.BoundaryPeers()
	for lv := 0; lv < owned; lv++ {
		for _, q := range peers[peerOff[lv]:peerOff[lv+1]] {
			bcastOut[q] = append(bcastOut[q], dist.Msg{Kind: dist.MsgCoarseID, A: sg.ToGlobal(int32(lv)), B: cGlobal[lv]})
		}
	}
	ghostCoarse := make([]int32, sg.NumGhosts())
	for i := range ghostCoarse {
		ghostCoarse[i] = -1
	}
	for _, msg := range ex.Exchange(pe, bcastOut) {
		if lu, ok := sg.ToLocal(msg.A); msg.Kind == dist.MsgCoarseID && ok && int(lu) >= owned {
			ghostCoarse[int(lu)-owned] = msg.B
		}
	}

	for lv := int32(0); lv < int32(owned); lv++ {
		ws := g.AdjWeights(lv)
		for i, lu := range g.Adj(lv) {
			var cu int32
			if int(lu) < owned {
				if lu < lv {
					continue
				}
				cu = cGlobal[lu]
			} else {
				if sg.ToGlobal(lu) < sg.ToGlobal(lv) {
					continue
				}
				cu = ghostCoarse[int(lu)-owned]
			}
			if cu != cGlobal[lv] {
				p.EdgeU = append(p.EdgeU, cGlobal[lv])
				p.EdgeV = append(p.EdgeV, cu)
				p.EdgeW = append(p.EdgeW, ws[i])
			}
		}
	}
	p.FineGlobal = slices.Clone(sg.LocalToGlobal[:owned])
	p.FineCoarse = cGlobal
	return p
}

// referenceStitch is the stitch of those parts, kept verbatim as the oracle:
// every part's weights, coordinates and edges go through a graph.Builder one
// call at a time, and the edge-list kernel under Build merges them.
func referenceStitch(g *graph.Graph, parts []*referencePart) (*graph.Graph, []int32) {
	total := 0
	for _, p := range parts {
		total += len(p.Weights)
	}
	b := graph.NewBuilder(total)
	for _, p := range parts {
		for i, w := range p.Weights {
			b.SetNodeWeight(p.FirstCoarse+int32(i), w)
		}
		if g.CoordDims() == 3 {
			for i := range p.Weights {
				b.SetCoord3(p.FirstCoarse+int32(i), p.CX[i], p.CY[i], p.CZ[i])
			}
		} else if g.HasCoords() {
			for i := range p.Weights {
				b.SetCoord(p.FirstCoarse+int32(i), p.CX[i], p.CY[i])
			}
		}
		for i := range p.EdgeU {
			b.AddEdge(p.EdgeU[i], p.EdgeV[i], p.EdgeW[i])
		}
	}
	fine2coarse := make([]int32, g.NumNodes())
	for _, p := range parts {
		for i, gv := range p.FineGlobal {
			fine2coarse[gv] = p.FineCoarse[i]
		}
	}
	return b.Build(), fine2coarse
}

// expandParts derives from a part set the stitch accepts what its workers
// would have shipped besides the map, from the level itself: each fine edge
// in the list of its smaller endpoint's owner, each coarse node's weight and
// coordinates summed over its members. A worker's coarse node has one or two
// members, whose sum is the same in either order; a part set may give one
// more, and those are summed in ascending fine order.
func expandParts(g *graph.Graph, parts []*coarsen.PEContraction) []*referencePart {
	n := g.NumNodes()
	owner := make([]int, n)
	f2c := make([]int32, n)
	out := make([]*referencePart, len(parts))
	for pe, p := range parts {
		out[pe] = &referencePart{PEContraction: *p, Weights: make([]int64, p.NumCoarse)}
		if g.HasCoords() {
			out[pe].CX, out[pe].CY = make([]float64, p.NumCoarse), make([]float64, p.NumCoarse)
			if g.CoordDims() == 3 {
				out[pe].CZ = make([]float64, p.NumCoarse)
			}
		}
		for i, v := range p.FineGlobal {
			owner[v], f2c[v] = pe, p.FineCoarse[i]
		}
	}
	partOf := func(c int32) (*referencePart, int32) {
		for _, p := range out {
			if c < p.FirstCoarse+p.NumCoarse {
				return p, c - p.FirstCoarse
			}
		}
		panic("coarse id outside the parts")
	}
	members := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		p, i := partOf(f2c[v])
		p.Weights[i] += g.NodeWeight(v)
		if p.CX != nil {
			x, y, z := g.Coord3(v)
			p.CX[i] += x
			p.CY[i] += y
			if p.CZ != nil {
				p.CZ[i] += z
			}
		}
		members[f2c[v]]++
		ws := g.AdjWeights(v)
		for j, u := range g.Adj(v) {
			if u > v && f2c[u] != f2c[v] {
				q := out[owner[v]]
				q.EdgeU, q.EdgeV, q.EdgeW = append(q.EdgeU, f2c[v]), append(q.EdgeV, f2c[u]), append(q.EdgeW, ws[j])
			}
		}
	}
	for _, p := range out {
		for i := range p.CX {
			cnt := members[p.FirstCoarse+int32(i)]
			p.CX[i] /= cnt
			p.CY[i] /= cnt
			if p.CZ != nil {
				p.CZ[i] /= cnt
			}
		}
	}
	return out
}

// sameGraph compares CSR rows, node weights, coordinate bits and aggregates.
func sameGraph(t testing.TB, what string, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
		got.TotalNodeWeight() != want.TotalNodeWeight() || got.TotalEdgeWeight() != want.TotalEdgeWeight() ||
		got.MaxNodeWeight() != want.MaxNodeWeight() || got.CoordDims() != want.CoordDims() {
		t.Fatalf("%s: shape or aggregates differ from the reference", what)
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		if !slices.Equal(got.Adj(v), want.Adj(v)) || !slices.Equal(got.AdjWeights(v), want.AdjWeights(v)) {
			t.Fatalf("%s: row %d differs from the reference", what, v)
		}
	}
	if !slices.Equal(got.NodeWeights(), want.NodeWeights()) {
		t.Fatalf("%s: node weights differ from the reference", what)
	}
	gc, wc := got.CoordSlices(), want.CoordSlices()
	for d := range wc {
		if !slices.EqualFunc(gc[d], wc[d], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: coordinate %d differs from the reference", what, d)
		}
	}
}

// levelParts runs one distributed level's matching and, on the same
// matchings, both per-PE kernels: the parts workers ship and the parts the
// oracle kernel makes. The oracle reads the coordinates shards carried
// before store version 2; the shards get them back, and the new kernel must
// ignore them.
func levelParts(g *graph.Graph, assign []int32, pes int, seed uint64) ([]*coarsen.PEContraction, []*referencePart) {
	sgs := dist.ExtractAll(g, assign, pes)
	for _, sg := range sgs {
		if g.HasCoords() && sg.Local.NumNodes() > 0 {
			c := make([][]float64, 3)
			for d, src := range g.CoordSlices() {
				c[d] = make([]float64, sg.Local.NumNodes())
				for lv, v := range sg.LocalToGlobal {
					c[d][lv] = src[v]
				}
			}
			if g.CoordDims() == 3 {
				sg.Local.SetCoords3(c[0], c[1], c[2])
			} else {
				sg.Local.SetCoords(c[0], c[1])
			}
		}
	}
	ms := matching.DistributedBounded(sgs, dist.NewExchanger(pes), rating.ExpansionStar2, matching.GPA, seed, 0, true)
	parts := make([]*coarsen.PEContraction, pes)
	ref := make([]*referencePart, pes)
	ex, exRef := dist.NewExchanger(pes), dist.NewExchanger(pes)
	var wg sync.WaitGroup
	for pe := range parts {
		wg.Add(2)
		go func() {
			defer wg.Done()
			parts[pe] = coarsen.ContractSubgraph(sgs[pe], ms[pe], ex, pe)
		}()
		go func() {
			defer wg.Done()
			ref[pe] = referenceContractSubgraph(sgs[pe], ms[pe], exRef, pe)
		}()
	}
	wg.Wait()
	return parts, ref
}

// checkLevel holds the stitch of one level's parts against the oracle: the
// old kernel's parts through the old stitch, and the same parts as
// expandParts derives them from the map.
func checkLevel(t *testing.T, what string, g *graph.Graph, assign []int32, pes int, seed uint64) {
	t.Helper()
	parts, ref := levelParts(g, assign, pes, seed)
	got, gotMap := coarsen.Stitch(g, parts)
	want, wantMap := referenceStitch(g, ref)
	sameGraph(t, what, got, want)
	if !slices.Equal(gotMap, wantMap) {
		t.Fatalf("%s: fine→coarse map differs from the reference", what)
	}
	expanded, _ := referenceStitch(g, expandParts(g, parts))
	sameGraph(t, what+" (expanded)", expanded, want)
}

// TestStitchMatchesReference is the differential test of the stitch over
// random graphs, assignments and matchings — 2D, 3D and no coordinates,
// sorted level-0 and unsorted contracted inputs, and PEs that own nothing.
func TestStitchMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rgg":      gen.RGG(10, 1),
		"delaunay": gen.DelaunayX(9, 2),
		"grid":     gen.Grid2D(20, 17),
		"grid3d":   gen.Grid3D(7, 6, 5),
		"road":     gen.Road(600, 4, 3),
		"social":   gen.PrefAttach(500, 4, 4),
		"rmat":     gen.RMAT(9, 8, 5),
		"fem":      gen.FEMMesh(500, 2, 6),
		"banded":   gen.Banded(400, 20, 6, 0.3, 7),
	}
	// Weighted, unsorted inputs: what every level after the first stitches.
	for _, name := range []string{"rgg", "grid3d", "rmat"} {
		g := graphs[name]
		cg, _ := coarsen.ContractWith(g, matching.ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, rng.New(5), 0, nil), coarsen.Options{})
		graphs[name+"/contracted"] = cg
	}
	r := rng.New(23)
	for name, g := range graphs {
		n := g.NumNodes()
		for _, pes := range []int{1, 2, 5} {
			_, ref := levelParts(g, dist.Assign(g, dist.StrategyAuto, pes), pes, 17)
			parallel := 0
			for _, p := range ref {
				seen := make(map[[2]int32]bool, len(p.EdgeU))
				for i, u := range p.EdgeU {
					e := [2]int32{min(u, p.EdgeV[i]), max(u, p.EdgeV[i])}
					if seen[e] {
						parallel++
					}
					seen[e] = true
				}
			}
			if parallel == 0 && g.NumEdges() > g.NumNodes() {
				t.Errorf("%s pes=%d: no part carries a parallel coarse edge; the merge is not covered", name, pes)
			}
			checkLevel(t, name, g, dist.Assign(g, dist.StrategyAuto, pes), pes, 17)
			scattered := make([]int32, n)
			for v := range scattered {
				scattered[v] = int32(r.Intn(pes))
			}
			checkLevel(t, name+"/scattered", g, scattered, pes, uint64(pes))
		}
		// A PE that owns nothing contributes an empty part.
		ends := make([]int32, n)
		for v := n / 2; v < n; v++ {
			ends[v] = 2
		}
		parts, _ := levelParts(g, ends, 3, 9)
		if parts[1].NumCoarse != 0 {
			t.Fatalf("%s: the empty PE numbered %d coarse nodes", name, parts[1].NumCoarse)
		}
		checkLevel(t, name+"/empty PE", g, ends, 3, 9)
	}
}

// TestStitchMergesAcrossParts pins a coarse node whose members lie on two
// PEs: its row merges the edges both members' rows reach, and the edges
// between the members vanish.
func TestStitchMergesAcrossParts(t *testing.T) {
	// 0-1
	// | |   nodes 0, 1 on PE 0; 2, 3 on PE 1; the pair {1,3} matched across.
	// 2-3
	g := graph.NewBuilder(4)
	for _, e := range [][3]int64{{0, 1, 4}, {0, 2, 1}, {1, 3, 9}, {2, 3, 6}} {
		g.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	g.SetCoord(0, 0, 0)
	g.SetCoord(1, 1, 0)
	g.SetCoord(2, 0, 1)
	g.SetCoord(3, 1, 1)
	level := g.Build()
	parts := []*coarsen.PEContraction{
		{FirstCoarse: 0, NumCoarse: 2, FineGlobal: []int32{0, 1}, FineCoarse: []int32{0, 1}},
		{FirstCoarse: 2, NumCoarse: 1, FineGlobal: []int32{2, 3}, FineCoarse: []int32{2, 1}},
	}
	got, gotMap := coarsen.Stitch(level, parts)
	want, wantMap := referenceStitch(level, expandParts(level, parts))
	sameGraph(t, "handmade", got, want)
	if !slices.Equal(gotMap, wantMap) {
		t.Fatal("fine→coarse map differs from the reference")
	}
	if w0, w2 := got.EdgeWeightTo(1, 0), got.EdgeWeightTo(1, 2); w0 != 4 || w2 != 6 || got.Degree(1) != 2 || got.NodeWeight(1) != 2 {
		t.Fatalf("pair {1,3}: edges to 0 and 2 weigh %d and %d, degree %d, weight %d; want 4, 6, 2, 2", w0, w2, got.Degree(1), got.NodeWeight(1))
	}
	if x, y := got.Coord(1); x != 1 || y != 0.5 {
		t.Fatalf("pair {1,3} sits at (%v,%v), want (1,0.5)", x, y)
	}
}

// TestStitchNothing covers a level whose parts are all empty.
func TestStitchNothing(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	empty := []*coarsen.PEContraction{{}, {}}
	got, _ := coarsen.Stitch(g, empty)
	want, _ := referenceStitch(g, expandParts(g, empty))
	sameGraph(t, "empty", got, want)
}

// TestStitchByteIdenticalAcrossGOMAXPROCS stitches level-0 parts of graphs
// large enough to clear the half-edge floor of graph.ParallelRanges on one,
// two and four processors: offsets, neighbours, weights, coordinates,
// aggregates and the fine→coarse map must not depend
// on how many goroutines built them. The one-processor result is also held
// against graph.FromCSR of its own arrays — the stitch adopts them without
// that second walk.
func TestStitchByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range map[string]*graph.Graph{"rgg14": gen.RGG(14, 1), "rmat13": gen.RMAT(13, 8, 2), "grid3d": gen.Grid3D(24, 24, 24)} {
		if 2*g.NumEdges() < 1<<16 {
			t.Fatalf("%s: %d edges stay under the parallel floor", name, g.NumEdges())
		}
		parts, _ := levelParts(g, dist.Assign(g, dist.StrategyAuto, 3), 3, 17)
		runtime.GOMAXPROCS(1)
		want, wantMap := coarsen.Stitch(g, parts)
		xadj := []int32{0}
		adj, ewgt := []int32{}, []int64{}
		for v := int32(0); v < int32(want.NumNodes()); v++ {
			adj, ewgt = append(adj, want.Adj(v)...), append(ewgt, want.AdjWeights(v)...)
			xadj = append(xadj, int32(len(adj)))
		}
		checked, err := graph.FromCSR(xadj, adj, ewgt, slices.Clone(want.NodeWeights()))
		if err != nil {
			t.Fatalf("%s: graph.FromCSR refuses the stitched arrays: %v", name, err)
		}
		switch x, y, z := want.Coords3(); want.CoordDims() {
		case 2:
			checked.SetCoords(x, y)
		case 3:
			checked.SetCoords3(x, y, z)
		}
		if !reflect.DeepEqual(want, checked) {
			t.Fatalf("%s: stitched graph differs from graph.FromCSR of the same arrays", name)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, gotMap := coarsen.Stitch(g, parts)
			if !reflect.DeepEqual(got, want) || !slices.Equal(gotMap, wantMap) {
				t.Fatalf("%s: GOMAXPROCS=%d stitches a different graph or map than GOMAXPROCS=1", name, procs)
			}
		}
	}
}

// TestStitchCheckedRefuses feeds the stitch parts no honest worker sends:
// each must come back as a *PartError naming the PE whose part it is.
func TestStitchCheckedRefuses(t *testing.T) {
	g := gen.Grid2D(4, 4)
	honest := func() []*coarsen.PEContraction {
		parts, _ := levelParts(g, dist.Assign(g, dist.StrategyRanges, 2), 2, 3)
		return parts
	}
	if _, _, err := coarsen.StitchChecked(nil, g, honest()); err != nil {
		t.Fatalf("honest parts refused: %v", err)
	}
	total := int32(0)
	for _, p := range honest() {
		total += p.NumCoarse
	}
	for name, corrupt := range map[string]func(p *coarsen.PEContraction){
		"first coarse id -1":               func(p *coarsen.PEContraction) { p.FirstCoarse = -1 },
		"first coarse id past the parts":   func(p *coarsen.PEContraction) { p.FirstCoarse += 3 },
		"negative coarse count":            func(p *coarsen.PEContraction) { p.NumCoarse = -1 },
		"more coarse than fine nodes":      func(p *coarsen.PEContraction) { p.NumCoarse += math.MaxInt32 / 2 },
		"fine node id past the graph":      func(p *coarsen.PEContraction) { p.FineGlobal[0] = int32(g.NumNodes()) },
		"negative fine node id":            func(p *coarsen.PEContraction) { p.FineGlobal[0] = -1 },
		"coarse id past the level":         func(p *coarsen.PEContraction) { p.FineCoarse[0] = total },
		"negative coarse id":               func(p *coarsen.PEContraction) { p.FineCoarse[0] = -1 },
		"fewer coarse ids than fine nodes": func(p *coarsen.PEContraction) { p.FineCoarse = p.FineCoarse[1:] },
		"a fine node mapped twice":         func(p *coarsen.PEContraction) { p.FineGlobal[0] = p.FineGlobal[1] },
		"coarse nodes left without members": func(p *coarsen.PEContraction) {
			for i := range p.FineCoarse {
				p.FineCoarse[i] = p.FirstCoarse
			}
		},
	} {
		for pe := range 2 {
			parts := honest()
			corrupt(parts[pe])
			_, _, err := coarsen.StitchChecked(nil, g, parts)
			var perr *coarsen.PartError
			if !errors.As(err, &perr) {
				t.Fatalf("%s in part %d: got %v, want a *PartError", name, pe, err)
			}
			if perr.PE != pe {
				t.Errorf("%s in part %d: blamed on PE %d (%v)", name, pe, perr.PE, err)
			}
		}
	}
	// What only the parts together get wrong is no single PE's: a fine node
	// nobody maps. A node two parts map is the later part's.
	parts := honest()
	parts[0].FineGlobal, parts[0].FineCoarse = parts[0].FineGlobal[1:], parts[0].FineCoarse[1:]
	var perr *coarsen.PartError
	if _, _, err := coarsen.StitchChecked(nil, g, parts); !errors.As(err, &perr) || perr.PE != -1 {
		t.Errorf("a fine node left out: got %v, want a *PartError of PE -1", err)
	}
	parts = honest()
	parts[1].FineGlobal[0] = parts[0].FineGlobal[0]
	if _, _, err := coarsen.StitchChecked(nil, g, parts); !errors.As(err, &perr) || perr.PE != 1 {
		t.Errorf("a fine node of part 0 mapped by part 1 too: got %v, want a *PartError of PE 1", err)
	}
}

// FuzzStitchMatchesReference decodes a part set with wire.DecodeContraction,
// as the coordinator does with its workers' results, and stitches it into
// one of a few small levels (2D, 3D, no coordinates, empty): whatever the
// parts say, the stitch either builds exactly the oracle's graph and map or
// refuses with a *PartError naming a PE, and never panics.
func FuzzStitchMatchesReference(f *testing.F) {
	levels := []*graph.Graph{gen.Grid2D(6, 5), gen.Grid3D(3, 3, 3), gen.RMAT(5, 4, 1), graph.NewBuilder(0).Build()}
	for li, g := range levels[:3] {
		for pes := 1; pes <= 3; pes++ {
			parts, _ := levelParts(g, dist.Assign(g, dist.StrategyAuto, pes), pes, uint64(li))
			var enc []byte
			for _, p := range parts {
				enc = wire.AppendContraction(enc, p)
			}
			f.Add(uint8(li), enc)
		}
	}
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), wire.AppendContraction(nil, &coarsen.PEContraction{NumCoarse: 2, FineGlobal: []int32{0, 1, 2}, FineCoarse: []int32{0, 0, 1}}))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		g := levels[int(which)%len(levels)]
		var parts []*coarsen.PEContraction
		for len(data) > 0 && len(parts) < 4 {
			p, rest, err := wire.DecodeContraction(data)
			if err != nil {
				return
			}
			parts, data = append(parts, p), rest
		}
		got, gotMap, err := coarsen.StitchChecked(nil, g, parts)
		if err != nil {
			var perr *coarsen.PartError
			if !errors.As(err, &perr) || perr.PE < -1 || perr.PE >= len(parts) {
				t.Fatalf("refused with %v, want a *PartError naming one of %d PEs", err, len(parts))
			}
			return
		}
		want, wantMap := referenceStitch(g, expandParts(g, parts))
		sameGraph(t, "fuzz", got, want)
		if !slices.Equal(gotMap, wantMap) {
			t.Fatal("fine→coarse map differs from the reference")
		}
	})
}
