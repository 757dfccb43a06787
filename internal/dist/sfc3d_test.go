package dist

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHilbert3DKeyAdjacency(t *testing.T) {
	// Consecutive curve positions are grid neighbors — the defining Hilbert
	// property, checked exhaustively on an 8x8x8 grid.
	const order = 3
	type pt struct{ x, y, z uint32 }
	pos := make(map[uint64]pt)
	const cell = uint32(1) << (sfcOrder - order)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			for z := uint32(0); z < 1<<order; z++ {
				key := hilbert3DKey(x*cell, y*cell, z*cell)
				pos[key] = pt{x, y, z}
			}
		}
	}
	if len(pos) != 512 {
		t.Fatalf("got %d distinct keys for 512 cells", len(pos))
	}
	keys := make([]uint64, 0, 512)
	for k := range pos {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for i := 1; i < len(keys); i++ {
		a, b := pos[keys[i-1]], pos[keys[i]]
		dx, dy, dz := int(a.x)-int(b.x), int(a.y)-int(b.y), int(a.z)-int(b.z)
		if dx*dx+dy*dy+dz*dz != 1 {
			t.Fatalf("curve jump between (%d,%d,%d) and (%d,%d,%d)",
				a.x, a.y, a.z, b.x, b.y, b.z)
		}
	}
}

func TestMorton3DKeyDistinct(t *testing.T) {
	const order = 3
	const cell = uint32(1) << (sfcOrder - order)
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			for z := uint32(0); z < 1<<order; z++ {
				k := morton3DKey(x*cell, y*cell, z*cell)
				if seen[k] {
					t.Fatalf("duplicate Morton key for (%d,%d,%d)", x, y, z)
				}
				seen[k] = true
			}
		}
	}
}

// TestHilbert3DLocality is the ROADMAP regression: on 3D meshes the real 3D
// Hilbert ordering must keep at least as much edge weight PE-internal as the
// Morton (Z-order) comparison point, and strictly more than the old x/y
// projection on instances where the projection collapses the z axis.
func TestHilbert3DLocality(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		pes  int
	}{
		{"grid3d-cube", gen.Grid3D(16, 16, 16), 7},
		{"grid3d-slab", gen.Grid3D(24, 24, 6), 5},
		{"grid3d-tall", gen.Grid3D(6, 6, 96), 7},
	} {
		x, y, z := tc.g.Coords3()
		hil := sfcAssign([][]float64{x, y, z}, nil, tc.pes, nil)
		mor := morton3D(x, y, z, tc.pes)
		proj := sfcAssign([][]float64{x, y}, nil, tc.pes, nil)
		lh := EdgeLocality(tc.g, hil)
		lm := EdgeLocality(tc.g, mor)
		lp := EdgeLocality(tc.g, proj)
		t.Logf("%s: hilbert3d %.4f morton3d %.4f xy-projection %.4f", tc.name, lh, lm, lp)
		if lh < lm {
			t.Errorf("%s: 3D Hilbert locality %.4f below Morton %.4f", tc.name, lh, lm)
		}
		if tc.name == "grid3d-tall" && lh <= lp {
			t.Errorf("%s: 3D Hilbert locality %.4f not above x/y projection %.4f", tc.name, lh, lp)
		}
		if im := Imbalance(tc.g, hil, tc.pes); im > 1.05 {
			t.Errorf("%s: 3D Hilbert imbalance %.4f", tc.name, im)
		}
	}
}

// TestAssignUses3DHilbert pins the Assign wiring: a 3D graph under
// StrategySFC gets the 3D curve, not the x/y projection.
func TestAssignUses3DHilbert(t *testing.T) {
	g := gen.Grid3D(8, 8, 8)
	x, y, z := g.Coords3()
	want := sfcAssign([][]float64{x, y, z}, g.NodeWeights(), 4, nil)
	got := Assign(g, StrategySFC, 4)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("Assign(SFC) diverges from the 3D curve at node %d", v)
		}
	}
}

// morton3D cuts the 3D Morton (Z-order) ordering of unit-weight nodes into
// pes ranges: cheaper per node than the Hilbert transform but with locality
// jumps at every octant seam. It is the comparison point
// TestHilbert3DLocality measures sfcAssign against.
func morton3D(x, y, z []float64, pes int) []int32 {
	if pes <= 1 || len(x) == 0 {
		return allOnPE0(nil, len(x))
	}
	qx, qy, qz := quantize(x), quantize(y), quantize(z)
	keys := make([]uint64, len(x))
	for v := range keys {
		keys[v] = morton3DKey(qx[v], qy[v], qz[v])
	}
	return cutCurve(keys, nil, pes, nil)
}

// morton3DKey interleaves the bits of the three grid coordinates (Z-order).
func morton3DKey(qx, qy, qz uint32) uint64 {
	return spread3(qx)<<2 | spread3(qy)<<1 | spread3(qz)
}

// spread3 inserts two zero bits between consecutive bits of the low 21 bits
// (the classic Morton-3D bit spread).
func spread3(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}
