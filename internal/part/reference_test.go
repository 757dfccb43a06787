package part

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// quotientReference is Quotient as it stood before the boundary index: a
// walk over every edge accumulating into a map keyed by block pair.
func quotientReference(p *Partition) []QEdge {
	acc := make(map[uint64]int64)
	for v := int32(0); v < int32(p.G.NumNodes()); v++ {
		bv := p.Block[v]
		ws := p.G.AdjWeights(v)
		for i, u := range p.G.Adj(v) {
			bu := p.Block[u]
			if u <= v || bu == bv {
				continue
			}
			a, b := min(bv, bu), max(bv, bu)
			acc[uint64(a)<<32|uint64(uint32(b))] += ws[i]
		}
	}
	edges := make([]QEdge, 0, len(acc))
	for key, w := range acc {
		edges = append(edges, QEdge{int32(key >> 32), int32(uint32(key)), w})
	}
	slices.SortFunc(edges, func(a, b QEdge) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	return edges
}

// distributedColoringReference is DistributedColoring as it stood before the
// allocation burn-down: map colour sets, per-round active and inbox slices.
func distributedColoringReference(k int, edges []QEdge, seed uint64) ([]int, int) {
	colors := make([]int, len(edges))
	for i := range colors {
		colors[i] = -1
	}
	incident := make([][]int, k)
	for i, e := range edges {
		incident[e.A] = append(incident[e.A], i)
		incident[e.B] = append(incident[e.B], i)
	}
	usedAt := make([]map[int]bool, k)
	rngs := make([]*rng.RNG, k)
	for b := 0; b < k; b++ {
		usedAt[b] = make(map[int]bool)
		rngs[b] = rng.NewStream(seed, uint64(b))
	}
	remaining := len(edges)
	maxColor := 0
	for round := 0; remaining > 0; round++ {
		active := make([]bool, k)
		for b := 0; b < k; b++ {
			active[b] = rngs[b].Bool()
		}
		type request struct {
			edge int
			from int32
		}
		inbox := make([][]request, k)
		for b := int32(0); b < int32(k); b++ {
			if !active[b] {
				continue
			}
			inc := incident[b][:0]
			for _, ei := range incident[b] {
				if colors[ei] < 0 {
					inc = append(inc, ei)
				}
			}
			incident[b] = inc
			if len(inc) == 0 {
				continue
			}
			ei := inc[rngs[b].Intn(len(inc))]
			other := edges[ei].A
			if other == b {
				other = edges[ei].B
			}
			inbox[other] = append(inbox[other], request{ei, b})
		}
		for b := int32(0); b < int32(k); b++ {
			if active[b] {
				continue
			}
			for _, req := range inbox[b] {
				if colors[req.edge] >= 0 {
					continue
				}
				c := 0
				for usedAt[b][c] || usedAt[req.from][c] {
					c++
				}
				colors[req.edge] = c
				usedAt[b][c] = true
				usedAt[req.from][c] = true
				if c+1 > maxColor {
					maxColor = c + 1
				}
				remaining--
			}
		}
	}
	return colors, maxColor
}

func TestDistributedColoringMatchesReference(t *testing.T) {
	r := rng.New(73)
	for i := 0; i < 300; i++ {
		k := 2 + r.Intn(80) // past 32 blocks the colour sets span two words
		edges := randomQuotient(k, []float64{0.05, 0.3, 1}[i%3], r)
		seed := r.Uint64()
		got, gotN := DistributedColoring(k, edges, seed)
		want, wantN := distributedColoringReference(k, edges, seed)
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("k=%d, %d edges, seed %d: colors %v (%d), reference %v (%d)", k, len(edges), seed, got, gotN, want, wantN)
		}
	}
}

// randomPartition scatters a striped k-way partition of g.
func randomPartition(g *graph.Graph, k int, r *rng.RNG) *Partition {
	block := stripes(g, k)
	for v := range block {
		if r.Intn(4) == 0 {
			block[v] = int32(r.Intn(k))
		}
	}
	return FromBlocks(g, k, 0.5, block)
}

// TestQuotientMatchesReference compares the index's quotient with the
// reference, built on one goroutine and with its rows claimed by the three
// members of a crew that build them side by side.
func TestQuotientMatchesReference(t *testing.T) {
	r := rng.New(74)
	const members = 3
	sideBySide := par.Start(members, par.Spin)
	defer sideBySide.Stop()
	for _, g := range []*graph.Graph{gen.RGG(10, 1), gen.RMAT(9, 8, 1), gen.Grid2D(20, 20), gen.Grid2D(1, 1)} {
		for _, k := range []int{1, 2, 7, 33} {
			p := randomPartition(g, k, r)
			want := quotientReference(p)
			if got := p.Quotient(); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: quotient %v, reference %v", g.NumNodes(), k, got, want)
			}
			if got := NewBoundaryIndex(p).QuotientOn(sideBySide); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: quotient built by %d members %v, reference %v", g.NumNodes(), k, members, got, want)
			}
		}
	}
}

// TestBoundaryIndexFollowsMoves moves random boundary nodes between the two
// blocks of random pairs, the way a pair refinement does (Seeds, then moves,
// then Patch), and checks after every step that each list still holds its
// block's boundary exactly once and that the index answers the quotient.
func TestBoundaryIndexFollowsMoves(t *testing.T) {
	r := rng.New(75)
	g := gen.RGG(9, 4)
	const k = 5
	p := randomPartition(g, k, r)
	x := NewBoundaryIndex(p)
	for step := 0; step < 200; step++ {
		a := int32(r.Intn(k))
		b := (a + 1 + int32(r.Intn(k-1))) % k
		seeds := x.Seeds(nil, p.Block, a, b)
		if !slices.IsSorted(seeds) {
			t.Fatalf("step %d: seeds not in node order", step)
		}
		var moved []int32
		for _, v := range seeds {
			if r.Intn(3) == 0 {
				p.Move(v, a+b-p.Block[v])
				moved = append(moved, v)
			}
		}
		x.Patch(p.Block, a, b, moved)
		for blk := int32(0); blk < k; blk++ {
			var listed []int32
			for _, v := range x.List(blk) {
				if p.Block[v] == blk {
					listed = append(listed, v)
				}
			}
			slices.Sort(listed)
			var boundary []int32
			for _, v := range p.BoundaryNodes() {
				if p.Block[v] == blk {
					boundary = append(boundary, v)
				}
			}
			for _, v := range boundary {
				if _, ok := slices.BinarySearch(listed, v); !ok {
					t.Fatalf("step %d: boundary node %d missing from list %d", step, v, blk)
				}
			}
			if len(slices.Compact(slices.Clone(listed))) != len(listed) {
				t.Fatalf("step %d: list %d holds a node twice", step, blk)
			}
		}
		if got, want := x.Quotient(), quotientReference(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: index quotient %v, reference %v", step, got, want)
		}
	}
}

// TestBoundaryIndexAboveFloorMatchesScan resets one index, partition after
// partition, over graphs with enough half-edges for the boundary scan to run
// on node ranges side by side — a mesh with the uneven node weights of a
// contracted level, its lightest nodes all in its second half, and a
// power-law graph — on one processor and on two: every list must hold its
// block's boundary nodes in node order, every mark be set exactly for them,
// and MinWeight be each block's lightest node, as one plain scan finds them.
func TestBoundaryIndexAboveFloorMatchesScan(t *testing.T) {
	r := rng.New(77)
	mesh := gen.RGG(15, 1)
	nwgt := make([]int64, mesh.NumNodes())
	var edges graph.EdgeList
	for v := int32(0); v < int32(mesh.NumNodes()); v++ {
		nwgt[v] = 1 + int64(r.Intn(5))
		if int(v) < mesh.NumNodes()/2 {
			nwgt[v]++
		}
		for _, u := range mesh.Adj(v) {
			if u > v {
				edges.U, edges.V, edges.W = append(edges.U, v), append(edges.V, u), append(edges.W, 1)
			}
		}
	}
	weighted, err := graph.FromEdgeList(nwgt, edges)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var x BoundaryIndex
	for _, g := range []*graph.Graph{weighted, gen.RMAT(12, 16, 1)} {
		if 2*g.NumEdges() < 1<<16 {
			t.Fatalf("%d edges stay under the parallel floor", g.NumEdges())
		}
		for _, k := range []int{16, 5} {
			p := randomPartition(g, k, r)
			lists, minW := make([][]int32, k), make([]int64, k)
			for b := range minW {
				minW[b] = NoNode
			}
			for v, b := range p.Block {
				minW[b] = min(minW[b], g.NodeWeight(int32(v)))
				for _, u := range g.Adj(int32(v)) {
					if p.Block[u] != b {
						lists[b] = append(lists[b], int32(v))
						break
					}
				}
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				x.Reset(nil, p, p.Block, -1, -1)
				marked := 0
				for _, in := range x.in {
					if in {
						marked++
					}
				}
				listed := 0
				for b := int32(0); b < int32(k); b++ {
					if !slices.Equal(x.List(b), lists[b]) || x.MinWeight(b) != minW[b] {
						t.Fatalf("n=%d k=%d GOMAXPROCS=%d: block %d indexed differently from the plain scan", g.NumNodes(), k, procs, b)
					}
					for _, v := range x.List(b) {
						if !x.in[v] {
							t.Fatalf("n=%d k=%d GOMAXPROCS=%d: listed node %d not marked", g.NumNodes(), k, procs, v)
						}
					}
					listed += len(lists[b])
				}
				if marked != listed {
					t.Fatalf("n=%d k=%d GOMAXPROCS=%d: %d nodes marked, %d listed", g.NumNodes(), k, procs, marked, listed)
				}
			}
		}
	}
}

// checkMinWeightIsLowerBound drives an index the way pair refinements do —
// Seeds, moves between the pair's blocks, Patch — with every choice drawn
// from pick, and checks the weight bound the stuck-pair test rests on: after
// a Reset MinWeight is the block's true minimum (NoNode for a block without
// nodes, and for the blocks a two-block Reset leaves out), and after any
// sequence of moves it is at most the true minimum, so a block with a node
// never reads as empty.
func checkMinWeightIsLowerBound(t *testing.T, p *Partition, steps int, pick func(n int) int) {
	t.Helper()
	k := int32(p.K)
	trueMin := func(blk int32) int64 {
		m := int64(NoNode)
		for v, b := range p.Block {
			if b == blk {
				m = min(m, p.G.NodeWeight(int32(v)))
			}
		}
		return m
	}
	x := NewBoundaryIndex(p)
	for step := 0; ; step++ {
		for blk := int32(0); blk < k; blk++ {
			if got, want := x.MinWeight(blk), trueMin(blk); got > want || (step == 0 && got != want) {
				t.Fatalf("step %d: MinWeight(%d) = %d, lightest node weighs %d", step, blk, got, want)
			}
		}
		if step == steps {
			break
		}
		a := int32(pick(int(k)))
		b := (a + 1 + int32(pick(int(k)-1))) % k
		var moved []int32
		for _, v := range x.Seeds(nil, p.Block, a, b) {
			if pick(3) == 0 {
				p.Move(v, a+b-p.Block[v])
				moved = append(moved, v)
			}
		}
		x.Patch(p.Block, a, b, moved)
	}
	a, b := int32(0), k-1
	x.Reset(nil, p, p.Block, a, b)
	for blk := int32(0); blk < k; blk++ {
		want := int64(NoNode)
		if blk == a || blk == b {
			want = trueMin(blk)
		}
		if got := x.MinWeight(blk); got != want {
			t.Fatalf("after a Reset to blocks %d and %d: MinWeight(%d) = %d, want %d", a, b, blk, got, want)
		}
	}
}

// weightedPartition decodes a small graph with node weights 1..8 and a k-way
// partition of it from bytes; the highest block starts empty when no byte
// names it.
func weightedPartition(data []byte) (*Partition, []byte) {
	if len(data) < 2 {
		return nil, nil
	}
	n, k := 2+int(data[0])%40, 2+int(data[1])%5
	data = data[2:]
	bld := graph.NewBuilder(n)
	edges := min(len(data)/2, 3*n)
	for i := 0; i < edges; i++ {
		bld.AddEdge(int32(int(data[2*i])%n), int32(int(data[2*i+1])%n), 1)
	}
	data = data[2*edges:]
	block := make([]int32, n)
	for v := 0; v < min(n, len(data)); v++ {
		block[v] = int32(int(data[v]) % k)
		bld.SetNodeWeight(int32(v), 1+int64(data[v]/8)%8)
	}
	return FromBlocks(bld.Build(), k, 0.5, block), data[min(n, len(data)):]
}

func TestMinWeightIsLowerBound(t *testing.T) {
	r := rng.New(76)
	data := make([]byte, 400)
	emptied := 0
	for round := 0; round < 200; round++ {
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		p, _ := weightedPartition(data)
		if slices.Index(p.Block, int32(p.K-1)) < 0 {
			emptied++
		}
		checkMinWeightIsLowerBound(t, p, 40, r.Intn)
	}
	if emptied == 0 {
		t.Fatal("no partition started with an empty block")
	}
}

// FuzzMinWeightIsLowerBound draws the graph, the partition and then every
// choice of the move sequence from the input.
func FuzzMinWeightIsLowerBound(f *testing.F) {
	f.Add([]byte{12, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 0, 9, 18, 0, 9, 18, 0, 9, 18, 0, 9, 18, 0, 1, 1, 0, 1, 0, 2, 0, 9})
	f.Add([]byte("the bound is exact after Reset, lowered by every arrival and never raised"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest := weightedPartition(data)
		if p == nil {
			return
		}
		checkMinWeightIsLowerBound(t, p, len(rest)/4, func(n int) int {
			if len(rest) == 0 {
				return 0
			}
			c := int(rest[0]) % n
			rest = rest[1:]
			return c
		})
	})
}
