package repro

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// mustRun is Run for tests whose configuration is known to be valid.
func mustRun(t testing.TB, g *Graph, cfg Config) Result {
	t.Helper()
	res, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFacadeEndToEnd exercises the public API surface: build, generate,
// partition, evaluate, baselines, METIS round trip.
func TestFacadeEndToEnd(t *testing.T) {
	b := NewBuilder(6)
	for v := int32(0); v < 5; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g := b.Build()
	cfg := NewConfig(Fast, 2)
	cfg.Seed = 1
	res := mustRun(t, g, cfg)
	cut, bal, feasible := Evaluate(g, 2, 0.03, res.Blocks)
	if cut != res.Cut || !feasible || bal > 1.5 {
		t.Fatalf("facade evaluate mismatch: cut %d/%d bal %f feasible %v", cut, res.Cut, bal, feasible)
	}

	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, FormatMETIS); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 6 {
		t.Fatal("METIS round trip broken through facade")
	}
	buf.Reset()
	if err := WriteGraph(&buf, g, FormatBinary); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadGraph(&buf, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumNodes() != 6 || g3.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip broken through facade")
	}

	rgg := RGG(10, 3)
	br := RunBaseline(rgg, 4, 0.03, KMetisLike, 1)
	if br.Cut <= 0 {
		t.Fatal("baseline via facade returned no cut")
	}
}

func TestFacadeGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"rgg", RGG(8, 1)},
		{"delaunay", DelaunayX(8, 1)},
		{"grid2d", Grid2D(8, 8)},
		{"grid3d", Grid3D(4, 4, 4)},
		{"fem", FEMMesh(800, 2, 1)},
		{"road", Road(1500, 3, 1)},
		{"social", PrefAttach(500, 3, 1)},
		{"rmat", RMAT(8, 8, 1)},
		{"banded", Banded(500, 8, 16, 0.5, 1)},
	}
	for _, c := range cases {
		if c.g.NumNodes() == 0 || c.g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", c.name)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestFacadePresets(t *testing.T) {
	g := Grid2D(16, 16)
	for _, v := range []Variant{Minimal, Fast, Strong} {
		cfg := NewConfig(v, 4)
		cfg.Seed = 2
		res := mustRun(t, g, cfg)
		if _, _, feasible := Evaluate(g, 4, cfg.Eps, res.Blocks); !feasible {
			t.Errorf("%v: infeasible", v)
		}
	}
}

// TestRunErrorsOnBadConfig pins the facade's error contract.
func TestRunErrorsOnBadConfig(t *testing.T) {
	g := Grid2D(8, 8)
	cfg := NewConfig(Fast, 0) // K = 0 is invalid
	if _, err := Run(context.Background(), g, cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("got %v, want ErrInvalidConfig", err)
	}
}
