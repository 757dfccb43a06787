package dist

import (
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/mem"
	"repro/internal/rng"
)

// rcbReference is the sort-based rcbScratch that weighted selection
// replaced, kept verbatim as the oracle: it sorts the whole subset by
// (coordinate, id) at every recursion level and scans for the split. The
// selection kernel must produce the same assignment for every input.
func rcbReference(dims [][]float64, w []int64, pes int) []int32 {
	if len(dims) == 0 {
		panic("dist: RCB needs at least one coordinate dimension")
	}
	n := len(dims[0])
	assign := make([]int32, n)
	if pes <= 1 || n == 0 {
		return assign
	}
	wt := func(v int32) int64 {
		if w == nil {
			return 1
		}
		return w[v]
	}
	nodes := make([]int32, n)
	var total int64
	for v := range nodes {
		nodes[v] = int32(v)
		total += wt(int32(v))
	}
	var rec func(nodes []int32, weight int64, pe0, p int)
	rec = func(nodes []int32, weight int64, pe0, p int) {
		if p <= 1 || len(nodes) <= 1 {
			for _, v := range nodes {
				assign[v] = int32(pe0)
			}
			return
		}
		pl := p / 2
		pr := p - pl

		// Widest dimension of the bounding box of the current set.
		coord, widest := dims[0], extent(dims[0], nodes)
		for _, c := range dims[1:] {
			if e := extent(c, nodes); e > widest {
				coord, widest = c, e
			}
		}
		sort.Slice(nodes, func(i, j int) bool {
			a, b := nodes[i], nodes[j]
			if coord[a] != coord[b] {
				return coord[a] < coord[b]
			}
			return a < b
		})

		// Weighted median at fraction pl/p: the split index s is the first
		// position whose prefix weight reaches weight·pl/p; an all-zero
		// subset splits by node count instead. Clamping keeps both sides
		// non-empty so no PE starves while nodes remain.
		s, leftWeight := 0, int64(0)
		if weight == 0 {
			s = len(nodes) * pl / p
		} else {
			target := weight * int64(pl) / int64(p)
			for s < len(nodes) && leftWeight+wt(nodes[s])/2 < target {
				leftWeight += wt(nodes[s])
				s++
			}
		}
		lo, hi := minSide(pl, len(nodes), pr), len(nodes)-minSide(pr, len(nodes), pl)
		for s < lo {
			leftWeight += wt(nodes[s])
			s++
		}
		for s > hi {
			s--
			leftWeight -= wt(nodes[s])
		}
		rec(nodes[:s], leftWeight, pe0, pl)
		rec(nodes[s:], weight-leftWeight, pe0+pl, pr)
	}
	rec(nodes, total, 0, pes)
	return assign
}

// rcbCase is one input of the differential tests.
type rcbCase struct {
	name string
	dims [][]float64
	w    []int64
}

// rcbCases builds point sets of n nodes: uniform 2D and 3D, coordinates
// snapped to a coarse grid (heavy duplicates), all nodes on one line, all on
// one point — each with unit, random, zero-heavy and all-zero weights.
func rcbCases(n int, seed uint64) []rcbCase {
	r := rng.New(seed)
	axis := func(f func(i int) float64) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = f(i)
		}
		return c
	}
	uniform := func(int) float64 { return r.Float64() }
	snapped := func(int) float64 { return float64(r.Uint64() % 4) }
	shapes := []struct {
		name string
		dims [][]float64
	}{
		{"uniform2d", [][]float64{axis(uniform), axis(uniform)}},
		{"uniform3d", [][]float64{axis(uniform), axis(uniform), axis(uniform)}},
		{"snapped2d", [][]float64{axis(snapped), axis(snapped)}},
		{"snapped3d", [][]float64{axis(snapped), axis(snapped), axis(snapped)}},
		{"collinear", [][]float64{axis(func(i int) float64 { return float64(i % 17) }), axis(func(int) float64 { return 2 })}},
		{"descending", [][]float64{axis(func(i int) float64 { return float64(n - i) }), axis(func(i int) float64 { return float64(i) / 2 })}},
		{"one point", [][]float64{axis(func(int) float64 { return 1 }), axis(func(int) float64 { return 1 })}},
	}
	weights := []struct {
		name string
		w    []int64
	}{
		{"unit", nil},
		{"random", make([]int64, n)},
		{"zero-heavy", make([]int64, n)},
		{"all-zero", make([]int64, n)},
	}
	for i := 0; i < n; i++ {
		weights[1].w[i] = 1 + int64(r.Uint64()%50)
		if r.Uint64()%4 == 0 {
			weights[2].w[i] = int64(r.Uint64() % 1000)
		}
	}
	var cases []rcbCase
	for _, s := range shapes {
		for _, w := range weights {
			cases = append(cases, rcbCase{s.name + "/" + w.name, s.dims, w.w})
		}
	}
	return cases
}

func TestRCBMatchesReference(t *testing.T) {
	arena := mem.NewArena()
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for _, c := range rcbCases(n, uint64(n)) {
			for _, pes := range []int{2, 3, 5, 8, 13, 64} {
				want := rcbReference(c.dims, c.w, pes)
				got := rcbScratch(c.dims, c.w, pes, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d pes=%d: selection %v, reference %v", c.name, n, pes, got, want)
				}
				// The arena-backed entry point must agree too, borrow after
				// borrow on stale buffers.
				scratch := rcbScratch(c.dims, c.w, pes, arena)
				if !slices.Equal(scratch, want) {
					t.Fatalf("%s n=%d pes=%d: arena-backed run differs from the reference", c.name, n, pes)
				}
				arena.PutInt32(scratch)
			}
		}
	}
}

// TestRCBAboveFloorMatchesReference runs the selection kernel on sets large
// enough for bisect to put its halves side by side — a mesh, a 3D grid with
// its ties, and a weighted level of the mesh contracted by hand (each node
// paired with its first free neighbour, a pair at its members' mean and of
// weight two) — on one processor and on two, and holds both to the
// reference.
func TestRCBAboveFloorMatchesReference(t *testing.T) {
	mesh, grid := gen.RGG(15, 1), gen.Grid3D(32, 32, 32)
	mx, my := mesh.Coords()
	taken := make([]bool, mesh.NumNodes())
	var cx, cy []float64
	var cw []int64
	for v := int32(0); v < int32(mesh.NumNodes()); v++ {
		if taken[v] {
			continue
		}
		taken[v] = true
		x, y, w := mx[v], my[v], int64(1)
		for _, u := range mesh.Adj(v) {
			if !taken[u] {
				taken[u] = true
				x, y, w = (x+mx[u])/2, (y+my[u])/2, 2
				break
			}
		}
		cx, cy, cw = append(cx, x), append(cy, y), append(cw, w)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []rcbCase{
		{"rgg15", mesh.CoordSlices(), mesh.NodeWeights()},
		{"grid3d", grid.CoordSlices(), nil},
		{"rgg15 contracted", [][]float64{cx, cy}, cw},
	} {
		if n := len(c.dims[0]); n < 4*parallelRCBNodes {
			t.Fatalf("%s: %d nodes keep every split under the parallel floor", c.name, n)
		}
		for _, pes := range []int{2, 3, 16, 64} {
			want := rcbReference(c.dims, c.w, pes)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				if got := rcbScratch(c.dims, c.w, pes, nil); !slices.Equal(got, want) {
					t.Fatalf("%s pes=%d GOMAXPROCS=%d: assignment differs from the reference", c.name, pes, procs)
				}
			}
		}
	}
}

// TestSelectPrefixSortFallback drives the introselect fallback — the branch
// a run of bad pivots would take — by giving the selection no partitioning
// budget at all, and checks it against a full sort.
func TestSelectPrefixSortFallback(t *testing.T) {
	for _, c := range rcbCases(300, 9) {
		coord := c.dims[0]
		sorted := make([]int32, len(coord))
		for v := range sorted {
			sorted[v] = int32(v)
		}
		slices.SortFunc(sorted, func(a, b int32) int {
			if before(coord, a, b) {
				return -1
			}
			return 1
		})
		total := weightOf(c.w, sorted)
		for _, target := range []int64{0, 1, total / 3, total / 2, total, total + 5} {
			wantS, wantPrefix := 0, int64(0)
			for wantS < len(sorted) && wantPrefix+weightAt(c.w, sorted[wantS])/2 < target {
				wantPrefix += weightAt(c.w, sorted[wantS])
				wantS++
			}
			for _, depth := range []int{0, 1, 64} {
				nodes := make([]int32, len(coord))
				for v := range nodes {
					nodes[v] = int32(len(nodes) - 1 - v)
				}
				s, prefix := selectPrefixDepth(coord, c.w, nodes, target, depth)
				if s != wantS || prefix != wantPrefix {
					t.Fatalf("%s target=%d depth=%d: split (%d, %d), want (%d, %d)", c.name, target, depth, s, prefix, wantS, wantPrefix)
				}
				left := slices.Clone(nodes[:s])
				slices.Sort(left)
				wantLeft := slices.Clone(sorted[:s])
				slices.Sort(wantLeft)
				if !slices.Equal(left, wantLeft) {
					t.Fatalf("%s target=%d depth=%d: nodes[:%d] is not the first %d of the order", c.name, target, depth, s, s)
				}
			}
		}
	}
}

// FuzzRCBMatchesReference decodes bytes into a small weighted point set —
// three bytes per node: two coordinates from a 16-value grid, so duplicates
// and collinear runs are the norm, and a weight that is zero a quarter of
// the time — and a PE count, and holds the selection kernel to the
// reference's assignment.
func FuzzRCBMatchesReference(f *testing.F) {
	f.Add(uint8(4), true, []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(7), false, []byte{0, 0, 0, 0, 0, 0, 255, 255, 255, 16, 1, 4})
	f.Add(uint8(64), true, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, pes uint8, weighted bool, data []byte) {
		n := len(data) / 3
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		var w []int64
		if weighted {
			w = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			b := data[3*i : 3*i+3]
			x[i], y[i], z[i] = float64(b[0]&15), float64(b[0]>>4), float64(b[1]&3)
			if weighted && b[2]&3 != 0 {
				w[i] = int64(b[2])
			}
		}
		for _, dims := range [][][]float64{{x, y}, {x, y, z}} {
			want := rcbReference(dims, w, int(pes))
			if got := rcbScratch(dims, w, int(pes), nil); !slices.Equal(got, want) {
				t.Fatalf("%dD pes=%d: selection %v, reference %v", len(dims), pes, got, want)
			}
		}
	})
}

// BenchmarkRCB times the assignment the pipeline computes once per
// contraction level, at the finest level of the end-to-end benchmark's mesh.
func BenchmarkRCB(b *testing.B) {
	g := gen.RGG(15, 1)
	for _, pes := range []int{2, 16, 64} {
		b.Run("rgg15/P="+strconv.Itoa(pes), func(b *testing.B) {
			arena := mem.NewArena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.PutInt32(AssignScratch(g, StrategyRCB, pes, arena))
			}
		})
	}
}
