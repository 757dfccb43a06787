package repro

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/store"
	"repro/internal/wire"
)

// unitSources builds g, a unit graph, once through every constructor that
// recognises one — the edge-list kernel, FromCSR, the binary decoder, a
// one-PE extraction, the shard decoder, the store's mapped CSR — and adds
// the copy of g whose ones are materialised, which every other must
// partition like. A source that drops coordinates gets g's back, so that
// every copy is the same graph to the distribution too.
func unitSources(t *testing.T, g *graph.Graph) map[string]*graph.Graph {
	t.Helper()
	n := int32(g.NumNodes())
	var l graph.EdgeList
	xadj, adj, ones := []int32{0}, []int32{}, []int64{}
	for v := int32(0); v < n; v++ {
		for _, u := range g.Adj(v) {
			if u > v {
				l.U, l.V, l.W = append(l.U, v), append(l.V, u), append(l.W, 1)
			}
			adj, ones = append(adj, u), append(ones, 1)
		}
		xadj = append(xadj, int32(len(adj)))
	}
	agg := graph.CSRAggregates{TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(), MaxNodeWeight: g.MaxNodeWeight()}
	srcs := map[string]*graph.Graph{
		"builder":      g,
		"materialised": graph.FromCSRTrusted(xadj, adj, ones, slices.Clone(g.NodeWeights()), agg),
	}
	var err error
	if srcs["edge lists"], err = graph.FromEdgeList(slices.Clone(g.NodeWeights()), l); err != nil {
		t.Fatal(err)
	}
	if srcs["FromCSR"], err = graph.FromCSR(slices.Clone(xadj), slices.Clone(adj), slices.Clone(ones), nil); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := graphio.WriteBinary(&file, g); err != nil {
		t.Fatal(err)
	}
	if srcs["binary"], err = graphio.ReadBinary(&file); err != nil {
		t.Fatal(err)
	}
	shard := dist.ExtractAll(g, make([]int32, n), 1)[0]
	srcs["extraction"] = shard.Local
	frame, _ := wire.AppendSubgraph(nil, shard)
	decoded, _, err := wire.DecodeSubgraph(frame)
	if err != nil {
		t.Fatal(err)
	}
	srcs["shard decoder"] = decoded.Local
	dir := filepath.Join(t.TempDir(), "src.kst")
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: 2, Strategy: dist.StrategyAuto}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := st.MapGraph()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	srcs["store"] = mg.G
	for name, sg := range srcs {
		if !sg.HasCoords() {
			sg.SetCoords(g.Coords()...)
		}
		if d := graph.Diff(sg, g); d != "" {
			t.Fatalf("%s: not the generated graph: %s", name, d)
		}
		if sg.UnitEdgeWeights() != (name != "materialised") {
			t.Fatalf("%s: unit graph %v", name, sg.UnitEdgeWeights())
		}
	}
	return srcs
}

// TestUnitWeightsEverySource partitions a unit graph from every source, and
// its copy with materialised weights, in shared, in-process distributed,
// socket and store mode: a unit graph must partition exactly like its
// copy. After the runs every source's ones run must still hold only 1s —
// the run of the row of largest degree is the whole of it.
func TestUnitWeightsEverySource(t *testing.T) {
	g := gen.RGG(12, 3)
	srcs := unitSources(t, g)
	for _, mode := range []string{"shared", "distributed", "socket", "store"} {
		coarsen := mode
		if mode == "socket" || mode == "store" {
			coarsen = "distributed"
		}
		cfg, err := core.ConfigFromNames("fast", 4, 0.03, 11, 2, 0, "auto", coarsen)
		if err != nil {
			t.Fatal(err)
		}
		blocks := map[string][]int32{}
		for name, sg := range srcs {
			var res Result
			switch mode {
			case "socket":
				res, err = serveGolden(sg, nil, cfg)
			case "store":
				var st *store.Store
				if st, err = writeGoldenStore(filepath.Join(t.TempDir(), "g.kst"), sg, cfg); err == nil {
					res, err = serveGolden(nil, st, cfg)
				}
			default:
				res, err = Run(context.Background(), sg, cfg)
			}
			if err != nil {
				t.Fatalf("%s, %s: %v", mode, name, err)
			}
			blocks[name] = res.Blocks
		}
		for name, b := range blocks {
			if !slices.Equal(b, blocks["materialised"]) {
				t.Errorf("%s: %s partitions its unit graph unlike the materialised copy", mode, name)
			}
		}
	}
	for name, sg := range srcs {
		heaviest := int32(0)
		for v := range int32(sg.NumNodes()) {
			if sg.Degree(v) > sg.Degree(heaviest) {
				heaviest = v
			}
		}
		if ws := sg.AdjWeights(heaviest); slices.ContainsFunc(ws, func(w int64) bool { return w != 1 }) {
			t.Errorf("%s: the ones run was written to: %v", name, ws)
		}
	}
}
