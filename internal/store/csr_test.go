package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestHeapReaderKeepsUnitGraphs holds the portable reader, which hosts that
// cannot map the segment take, to the graph the store was written from: a
// unit graph skips the weight section and comes back a unit graph, a
// weighted one reads it.
func TestHeapReaderKeepsUnitGraphs(t *testing.T) {
	b := graph.NewBuilder(60)
	for v := int32(0); v < 60; v++ {
		b.AddEdge(v, (v+1)%60, int64(v%3)+1)
		b.AddEdge(v, (v+7)%60, 1)
	}
	for name, g := range map[string]*graph.Graph{"unit": gen.RGG(9, 1), "weighted": b.Build()} {
		dir := filepath.Join(t.TempDir(), name)
		if _, err := Write(dir, g, WriteOptions{PEs: 2, Strategy: dist.StrategyAuto}); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(s.path(s.manifest.CSR.File))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Seek(csrHeaderSize, 0); err != nil {
			t.Fatal(err)
		}
		man := s.manifest
		got, err := readCSRHeap(f, man, layoutCSR(man.Nodes, man.Edges, man.CoordDims))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := graph.Diff(got, g); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		if got.UnitEdgeWeights() != g.UnitEdgeWeights() || g.UnitEdgeWeights() != (name == "unit") {
			t.Fatalf("%s: read back a unit graph %v from a unit graph %v", name, got.UnitEdgeWeights(), g.UnitEdgeWeights())
		}
	}
}
