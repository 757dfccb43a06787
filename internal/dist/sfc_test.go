package dist

import (
	"testing"

	"repro/internal/gen"
)

func TestHilbertKeyAdjacency(t *testing.T) {
	// Consecutive curve positions are grid neighbors — the defining Hilbert
	// property, checked exhaustively on an 8x8 grid via a tiny re-walk.
	const order = 3
	type pt struct{ x, y uint32 }
	pos := make(map[uint64]pt)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			// Scale up to the full sfcOrder grid: multiply by the cell
			// size so the coarse cells stay Hilbert-ordered.
			const cell = uint32(1) << (sfcOrder - order)
			key := hilbertKey(x*cell, y*cell)
			pos[key] = pt{x, y}
		}
	}
	if len(pos) != 64 {
		t.Fatalf("got %d distinct keys for 64 cells", len(pos))
	}
	keys := make([]uint64, 0, 64)
	for k := range pos {
		keys = append(keys, k)
	}
	// The keys of coarse cells are spaced cell² apart; sort and walk.
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for i := 1; i < len(keys); i++ {
		a, b := pos[keys[i-1]], pos[keys[i]]
		dx, dy := int(a.x)-int(b.x), int(a.y)-int(b.y)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jump between (%d,%d) and (%d,%d)", a.x, a.y, b.x, b.y)
		}
	}
}

func TestSFCBeatsIndexRangesOnGrid(t *testing.T) {
	// The satellite claim: on a 2D grid, curve order keeps neighbors
	// together while the row-major index order cuts every row at range
	// boundaries.
	g := gen.Grid2D(64, 64)
	x, y := g.Coords()
	for _, pes := range []int{4, 7, 8, 16} {
		sfc := sfcAssign([][]float64{x, y}, nil, pes, nil)
		rng := IndexRanges(g.NumNodes(), pes)
		ls, lr := EdgeLocality(g, sfc), EdgeLocality(g, rng)
		if ls <= lr {
			t.Errorf("pes=%d: Hilbert locality %.3f not better than index ranges %.3f", pes, ls, lr)
		}
	}
}

func TestSFCComparableToRCBOnRGG(t *testing.T) {
	// SFC is the cheap alternative: it should land within a few points of
	// RCB's locality on a mesh-like geometric graph, far above ranges.
	g := gen.RGG(12, 99)
	x, y := g.Coords()
	pes := 8
	lsfc := EdgeLocality(g, sfcAssign([][]float64{x, y}, nil, pes, nil))
	lrcb := EdgeLocality(g, rcbScratch(nil, [][]float64{x, y}, nil, pes, nil))
	if lsfc < 0.8*lrcb {
		t.Errorf("Hilbert locality %.3f far below RCB %.3f", lsfc, lrcb)
	}
}

func TestSFCBalanced(t *testing.T) {
	x, y := randomPoints(3000, 17)
	for _, pes := range []int{3, 8} {
		assign := sfcAssign([][]float64{x, y}, nil, pes, nil)
		checkAssignment(t, assign, len(x), pes)
		counts := make([]int, pes)
		for _, pe := range assign {
			counts[pe]++
		}
		avg := float64(len(x)) / float64(pes)
		for pe, c := range counts {
			if ratio := float64(c) / avg; ratio > 1.05 || ratio < 0.95 {
				t.Errorf("pes=%d: PE %d holds %d nodes (%.2fx average)", pes, pe, c, ratio)
			}
		}
	}
}

func TestSFCDeterministicAndDegenerate(t *testing.T) {
	x, y := randomPoints(1000, 3)
	a, b := sfcAssign([][]float64{x, y}, nil, 6, nil), sfcAssign([][]float64{x, y}, nil, 6, nil)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("Hilbert not deterministic at node %d", v)
		}
	}
	// Degenerate axis (all points on a line) must still balance.
	line := make([]float64, 200)
	for i := range line {
		line[i] = float64(i)
	}
	flat := make([]float64, 200)
	assign := sfcAssign([][]float64{line, flat}, nil, 4, nil)
	checkAssignment(t, assign, 200, 4)
	counts := make([]int, 4)
	for _, pe := range assign {
		counts[pe]++
	}
	for pe, c := range counts {
		if c != 50 {
			t.Errorf("line: PE %d got %d nodes, want 50", pe, c)
		}
	}
}
