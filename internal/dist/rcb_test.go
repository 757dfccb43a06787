package dist

import (
	"testing"

	"repro/internal/rng"
)

// randomPoints returns n deterministic pseudo-random points in the unit
// square.
func randomPoints(n int, seed uint64) (x, y []float64) {
	r := rng.New(seed)
	x = make([]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	return x, y
}

func TestRCBBalanceNonPowerOfTwo(t *testing.T) {
	for _, pes := range []int{2, 3, 4, 5, 6, 7, 8, 12, 13} {
		for _, seed := range []uint64{1, 2, 3} {
			x, y := randomPoints(4000, seed)
			assign := rcbScratch(nil, [][]float64{x, y}, nil, pes, nil)
			checkAssignment(t, assign, len(x), pes)
			counts := make([]int, pes)
			for _, pe := range assign {
				counts[pe]++
			}
			avg := float64(len(x)) / float64(pes)
			for pe, c := range counts {
				if ratio := float64(c) / avg; ratio > 1.05 || ratio < 0.95 {
					t.Errorf("pes=%d seed=%d: PE %d holds %d nodes (%.2fx average)", pes, seed, pe, c, ratio)
				}
			}
		}
	}
}

func TestRCBDeterministic(t *testing.T) {
	for _, seed := range []uint64{7, 8, 9} {
		x, y := randomPoints(2000, seed)
		a := rcbScratch(nil, [][]float64{x, y}, nil, 5, nil)
		b := rcbScratch(nil, [][]float64{x, y}, nil, 5, nil)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("seed=%d: RCB not deterministic at node %d: %d vs %d", seed, v, a[v], b[v])
			}
		}
	}
}

func TestRCBWeighted(t *testing.T) {
	// A heavy cluster in one corner: weighted bisection must move the cut
	// toward it so that PE weights stay balanced.
	x, y := randomPoints(3000, 42)
	w := make([]int64, len(x))
	for i := range w {
		w[i] = 1
		if x[i] < 0.25 && y[i] < 0.25 {
			w[i] = 20
		}
	}
	pes := 4
	assign := rcbScratch(nil, [][]float64{x, y}, w, pes, nil)
	checkAssignment(t, assign, len(x), pes)
	sums := make([]int64, pes)
	var total int64
	for v, pe := range assign {
		sums[pe] += w[v]
		total += w[v]
	}
	avg := float64(total) / float64(pes)
	for pe, s := range sums {
		if ratio := float64(s) / avg; ratio > 1.15 || ratio < 0.85 {
			t.Errorf("PE %d has weight %d (%.2fx average)", pe, s, ratio)
		}
	}
}

func TestRCBDegenerate(t *testing.T) {
	// n < pes: all PEs in range, every node its own PE.
	x, y := randomPoints(3, 11)
	assign := rcbScratch(nil, [][]float64{x, y}, nil, 8, nil)
	checkAssignment(t, assign, 3, 8)

	// Identical coordinates: ties break by id, split must still balance.
	xc := make([]float64, 100)
	yc := make([]float64, 100)
	assign = rcbScratch(nil, [][]float64{xc, yc}, nil, 4, nil)
	checkAssignment(t, assign, 100, 4)
	counts := make([]int, 4)
	for _, pe := range assign {
		counts[pe]++
	}
	for pe, c := range counts {
		if c != 25 {
			t.Errorf("identical coords: PE %d got %d nodes, want 25", pe, c)
		}
	}

	// Zero-weight subset must not panic or leave PEs out of range.
	x, y = randomPoints(60, 5)
	checkAssignment(t, rcbScratch(nil, [][]float64{x, y}, make([]int64, 60), 7, nil), 60, 7)

	// pes=1 and empty input.
	if got := rcbScratch(nil, [][]float64{nil, nil}, nil, 4, nil); len(got) != 0 {
		t.Errorf("empty input: got %v", got)
	}
	for _, pe := range rcbScratch(nil, [][]float64{x, y}, nil, 1, nil) {
		if pe != 0 {
			t.Fatal("pes=1 must map everything to PE 0")
		}
	}
}

func TestRCBEveryPEPopulated(t *testing.T) {
	for _, pes := range []int{2, 3, 5, 9, 16} {
		x, y := randomPoints(500, 33)
		assign := rcbScratch(nil, [][]float64{x, y}, nil, pes, nil)
		counts := make([]int, pes)
		for _, pe := range assign {
			counts[pe]++
		}
		for pe, c := range counts {
			if c == 0 {
				t.Errorf("pes=%d: PE %d received no nodes", pes, pe)
			}
		}
	}
}

// TestRCBDims2DEquivalence checks that the generalized widest-dimension
// bisection reproduces the 2D bisection exactly when a third dimension has no
// extent: a flat axis never wins the widest-dimension choice.
func TestRCBDims2DEquivalence(t *testing.T) {
	for _, pes := range []int{2, 5, 8, 13} {
		x, y := randomPoints(3000, 7)
		a := rcbScratch(nil, [][]float64{x, y}, nil, pes, nil)
		b := rcbScratch(nil, [][]float64{x, y, make([]float64, len(x))}, nil, pes, nil)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("pes=%d: assignment differs at node %d: %d vs %d", pes, v, a[v], b[v])
			}
		}
	}
}

// TestRCB3DSplitsWidestAxis gives the third dimension by far the largest
// extent; the first bisection must cut it, so with two PEs the assignment
// separates low z from high z exactly.
func TestRCB3DSplitsWidestAxis(t *testing.T) {
	x, y := randomPoints(2000, 9)
	z := make([]float64, len(x))
	r := rng.New(11)
	for i := range z {
		z[i] = 100 * r.Float64()
	}
	assign := rcbScratch(nil, [][]float64{x, y, z}, nil, 2, nil)
	// Every PE-0 node must have smaller z than every PE-1 node.
	max0, min1 := -1.0, 101.0
	var n0 int
	for v, pe := range assign {
		if pe == 0 {
			n0++
			if z[v] > max0 {
				max0 = z[v]
			}
		} else if z[v] < min1 {
			min1 = z[v]
		}
	}
	if max0 > min1 {
		t.Fatalf("bisection did not cut the z axis: max z on PE0 %.3f > min z on PE1 %.3f", max0, min1)
	}
	if n0 < 900 || n0 > 1100 {
		t.Fatalf("unbalanced bisection: %d of %d on PE 0", n0, len(assign))
	}
}

// TestRCB3DBalance runs 3D RCB across PE counts and checks every PE is
// populated and node counts stay near-balanced.
func TestRCB3DBalance(t *testing.T) {
	x, y := randomPoints(4000, 3)
	z := make([]float64, len(x))
	r := rng.New(5)
	for i := range z {
		z[i] = r.Float64()
	}
	for _, pes := range []int{2, 3, 7, 8, 16} {
		assign := rcbScratch(nil, [][]float64{x, y, z}, nil, pes, nil)
		counts := make([]int, pes)
		for _, pe := range assign {
			if pe < 0 || int(pe) >= pes {
				t.Fatalf("pes=%d: assignment out of range: %d", pes, pe)
			}
			counts[pe]++
		}
		ideal := len(assign) / pes
		for pe, c := range counts {
			if c == 0 {
				t.Fatalf("pes=%d: PE %d empty", pes, pe)
			}
			if c < ideal*7/10 || c > ideal*13/10 {
				t.Errorf("pes=%d: PE %d holds %d nodes (ideal %d)", pes, pe, c, ideal)
			}
		}
	}
}
