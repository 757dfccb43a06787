package coarsen

import (
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"weak"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mem"
	"repro/internal/rating"
	"repro/internal/rng"
)

func TestContractSimple(t *testing.T) {
	// Path 0-1-2-3 with weights 1,2,3; match {1,2}.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	g := b.Build()
	m := matching.NewEmpty(4)
	m[1], m[2] = 2, 1
	cg, f2c := ContractWith(g, m, Options{})
	if cg.NumNodes() != 3 || cg.NumEdges() != 2 {
		t.Fatalf("coarse n=%d m=%d", cg.NumNodes(), cg.NumEdges())
	}
	if f2c[1] != f2c[2] {
		t.Fatal("matched nodes mapped to different coarse nodes")
	}
	x := f2c[1]
	if cg.NodeWeight(x) != 2 {
		t.Fatalf("contracted node weight %d, want 2", cg.NodeWeight(x))
	}
	if cg.EdgeWeightTo(f2c[0], x) != 1 || cg.EdgeWeightTo(x, f2c[3]) != 3 {
		t.Fatal("edge weights wrong after contraction")
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractMergesParallel(t *testing.T) {
	// Triangle 0-1-2; match {0,1}: edges {0,2} and {1,2} merge.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 2, 2)
	b.AddEdge(1, 2, 3)
	g := b.Build()
	m := matching.NewEmpty(3)
	m[0], m[1] = 1, 0
	cg, f2c := ContractWith(g, m, Options{})
	if cg.NumNodes() != 2 || cg.NumEdges() != 1 {
		t.Fatalf("coarse n=%d m=%d", cg.NumNodes(), cg.NumEdges())
	}
	if w := cg.EdgeWeightTo(f2c[0], f2c[2]); w != 5 {
		t.Fatalf("merged weight %d, want 5", w)
	}
}

func TestContractEmptyMatching(t *testing.T) {
	g := gen.Grid2D(4, 4)
	cg, f2c := ContractWith(g, matching.NewEmpty(16), Options{})
	if cg.NumNodes() != 16 || cg.NumEdges() != g.NumEdges() {
		t.Fatal("empty matching must be identity contraction")
	}
	for v, c := range f2c {
		if int32(v) != c {
			t.Fatal("identity mapping expected")
		}
	}
}

// TestContractInvariants checks the two conservation laws on random graphs:
// node weight is preserved exactly, and edge weight decreases exactly by the
// matching weight.
func TestContractInvariants(t *testing.T) {
	master := rng.New(31)
	f := func(seed uint16) bool {
		r := master.Split(uint64(seed))
		n := 4 + r.Intn(60)
		b := graph.NewBuilder(n)
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, int64(1+r.Intn(9)))
			}
		}
		g := b.Build()
		rt := rating.NewRater(rating.ExpansionStar2, g)
		m := matching.ComputeScratch(g, rt, matching.GPA, r, 0, nil)
		cg, f2c := ContractWith(g, m, Options{})
		if cg.Validate() != nil {
			return false
		}
		if cg.TotalNodeWeight() != g.TotalNodeWeight() {
			return false
		}
		if cg.TotalEdgeWeight() != g.TotalEdgeWeight()-m.Weight(g) {
			return false
		}
		if cg.NumNodes() != g.NumNodes()-m.Size() {
			return false
		}
		// Mapping sanity: every coarse id hit, matched pairs coincide.
		for v := 0; v < n; v++ {
			if f2c[v] < 0 || int(f2c[v]) >= cg.NumNodes() {
				return false
			}
			if u := m[v]; u >= 0 && f2c[v] != f2c[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestContractCoords(t *testing.T) {
	g := gen.Grid2D(4, 1) // 4 nodes in a row at x = 0, .25, .5, .75
	m := matching.NewEmpty(4)
	m[0], m[1] = 1, 0
	cg, f2c := ContractWith(g, m, Options{})
	if !cg.HasCoords() {
		t.Fatal("coordinates lost")
	}
	if x := cg.Coords()[0][f2c[0]]; x != 0.125 {
		t.Fatalf("midpoint x = %v, want 0.125", x)
	}
}

// TestHierarchyProjection climbs a hierarchy one Uncoarsen at a time.
// Each step must write what ProjectInto writes, lower Depth by one, make the
// next-finer graph Coarsest and keep no reference to the coarse graph or its
// map: the slot past the end of Levels is cleared, and the released graph is
// collected once nothing else holds it.
func TestHierarchyProjection(t *testing.T) {
	g := gen.Grid2D(8, 8)
	h := NewHierarchy(g)
	r := rng.New(3)
	for h.Coarsest.NumNodes() > 8 {
		rt := rating.NewRater(rating.ExpansionStar2, h.Coarsest)
		m := matching.ComputeScratch(h.Coarsest, rt, matching.GPA, r, 0, nil)
		if m.Size() == 0 {
			break
		}
		cg, f2c := ContractWith(h.Coarsest, m, Options{})
		h.Push(cg, f2c)
	}
	if h.Depth() < 2 {
		t.Fatalf("hierarchy too shallow: %d", h.Depth())
	}
	part := make([]int32, h.Coarsest.NumNodes())
	for v := range part {
		part[v] = int32(v % 2)
	}
	for depth := h.Depth(); depth > 0; depth-- {
		finer := h.Finer()
		want := make([]int32, finer.NumNodes())
		h.ProjectInto(depth-1, part, want)
		released := weak.Make(h.Coarsest)
		got := make([]int32, finer.NumNodes())
		if c := h.Uncoarsen(part, got); c != finer || h.Coarsest != finer {
			t.Fatalf("depth %d: Uncoarsen left Coarsest at another graph than Finer()", depth)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("depth %d: Uncoarsen wrote another partition than ProjectInto", depth)
		}
		if h.Depth() != depth-1 {
			t.Fatalf("depth %d: Depth() = %d after one step", depth, h.Depth())
		}
		if slot := h.Levels[:depth][depth-1]; slot.Fine != nil || slot.Map != nil {
			t.Fatalf("depth %d: the released slot still holds its graph or map", depth)
		}
		runtime.GC()
		runtime.GC()
		if released.Value() != nil {
			t.Fatalf("depth %d: the released coarse graph is still reachable", depth)
		}
		part = got
	}
	if h.Coarsest != g || len(part) != g.NumNodes() {
		t.Fatal("the climb did not end at the input graph")
	}
}

// BenchmarkContract is the shared level's contraction as the pipeline runs
// it on level 0 of the benchmark's inputs: the §3.3 GPA matching over 16
// RCB blocks (index ranges on rmat12, which has no coordinates), contracted
// by that distribution on as many workers as GOMAXPROCS allows, from one
// arena an untimed first contraction has warmed.
func BenchmarkContract(b *testing.B) {
	const pes = 16
	for _, spec := range []string{"rgg:15", "rmat:12"} {
		g, err := gen.FromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		blocks := dist.Assign(g, dist.StrategyRCB, pes)
		m := matching.Parallel(nil, g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, blocks, pes, 1, 0, true, nil)
		b.Run(strings.ReplaceAll(spec, ":", ""), func(b *testing.B) {
			opt := Options{Workers: runtime.GOMAXPROCS(0), Arena: mem.NewArena(), Blocks: blocks, PEs: pes}
			ContractWith(g, m, opt)
			// An op allocates about as much as the level it contracts
			// holds, so the collections run between the ops, as in the
			// stitch's benchmark, not at whichever op they fall in.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if cg, _ := ContractWith(g, m, opt); cg.NumNodes() >= g.NumNodes() {
					b.Fatalf("level did not shrink the graph: %d nodes", cg.NumNodes())
				}
			}
		})
	}
}

func TestShrinksAtTheBoundary(t *testing.T) {
	h := NewHierarchy(gen.Grid2D(5, 10))
	for _, c := range []struct {
		nodes int
		want  bool
	}{{48, true}, {49, true}, {50, false}} {
		if got := h.Shrinks(gen.Grid2D(1, c.nodes)); got != c.want {
			t.Errorf("50 → %d nodes: Shrinks = %v, want %v", c.nodes, got, c.want)
		}
	}
}

// TestShrinksBeforeContracting holds the rule the multilevel loops apply to
// a matching before contracting it — Shrinks(n, n−|M|) — to Hierarchy.Shrinks
// on the graph the matching contracts to: GPA matchings of a mesh and a hub
// graph, cut down to every size around the 49/50 boundary, including none.
func TestShrinksBeforeContracting(t *testing.T) {
	for _, g := range []*graph.Graph{gen.RGG(9, 2), gen.RMAT(9, 8, 3)} {
		n := g.NumNodes()
		full := matching.ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, rng.New(4), 0, nil)
		var pairs [][2]int32
		for v, u := range full {
			if int32(v) < u {
				pairs = append(pairs, [2]int32{int32(v), u})
			}
		}
		boundary := n - n*49/50
		for _, size := range []int{0, 1, boundary - 1, boundary, boundary + 1, len(pairs)} {
			if size < 0 || size > len(pairs) {
				continue
			}
			m := matching.NewEmpty(n)
			for _, p := range pairs[:size] {
				m[p[0]], m[p[1]] = p[1], p[0]
			}
			cg, _ := ContractWith(g, m, Options{})
			if got, want := Shrinks(n, n-m.Size()), NewHierarchy(g).Shrinks(cg); got != want {
				t.Errorf("%d nodes, %d pairs: Shrinks before contracting = %v, on the %d-node contraction %v", n, size, got, cg.NumNodes(), want)
			}
		}
	}
}
