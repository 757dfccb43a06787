package graphtest

import (
	"testing"

	"repro/internal/graph"
)

func TestDegreeStats(t *testing.T) {
	b := graph.NewBuilder(5) // the path 0-1-2-3-4
	for v := range int32(4) {
		b.AddEdge(v, v+1, 1)
	}
	if maxDeg, avg := DegreeStats(b.Build()); maxDeg != 2 || avg != 1.6 {
		t.Fatalf("degree stats %d, %v; want 2, 1.6", maxDeg, avg)
	}
	if maxDeg, avg := DegreeStats(graph.NewBuilder(0).Build()); maxDeg != 0 || avg != 0 {
		t.Fatalf("empty graph: degree stats %d, %v", maxDeg, avg)
	}
}
