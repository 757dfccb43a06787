package part

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestGroupRowReadsEachBlockOnce groups a hub row of 2^14 neighbours over and
// over while another goroutine moves the row's block-2 neighbours between
// blocks 1 and 2 through the view, as a concurrent pair moves the nodes of a
// row another pair regroups. Grouping must place each neighbour by the block
// it counted it in: the row's ids stay a permutation of the row, the groups
// tile it, and each group's weight is the sum of its ids' edge weights. A
// groupRow that reads a neighbour's block a second time to place it breaks
// the row within a few rounds once the mover runs beside it.
func TestGroupRowReadsEachBlockOnce(t *testing.T) {
	const deg, rounds = 1 << 14, 1000
	// Hub 0 borders leaves 1..deg, a third of them in each block, by an edge
	// of weight u.
	n := deg + 1
	b := graph.NewBuilder(n)
	block := make([]int32, n)
	var moving []int32
	for u := int32(1); u <= deg; u++ {
		b.AddEdge(0, u, int64(u))
		block[u] = u % 3
		if block[u] == 2 {
			moving = append(moving, u)
		}
	}
	p := FromBlocks(b.Build(), 3, 0.03, block)
	x := NewBoundaryIndex(p)
	x.Regroup(nil)
	if !x.grouped || x.slot[0] < 0 {
		t.Fatalf("grouped %v, hub row %d: the level must group the hub", x.grouped, x.slot[0])
	}
	s := x.slot[0]
	// Room past the index's ids, where an overrun of the row's last group
	// lands instead of past the end.
	x.ids = append(x.ids, make([]int32, deg)...)

	view := slices.Clone(block)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for to := int32(1); ; to = 3 - to {
			select {
			case <-stop:
				return
			default:
			}
			for _, u := range moving {
				ViewSet(view, u, to)
			}
		}
	}()
	defer func() { close(stop); <-done }()

	var sc groupScratch
	seen := make([]int32, n)
	for round := int32(1); round <= rounds; round++ {
		x.groupRow(&sc, view, 0, s)
		row := x.rows[s]
		for _, u := range x.ids[row.idsAt : row.idsAt+deg] {
			if u < 1 || u > deg || seen[u] == round {
				t.Fatalf("round %d: the row's ids are not a permutation of the row (id %d)", round, u)
			}
			seen[u] = round
		}
		at := row.idsAt
		for r, gr := range x.groups[row.first : row.first+int32(bits.OnesCount64(row.mask))] {
			var w int64
			for _, u := range x.ids[gr.lo:gr.hi] {
				w += int64(u)
			}
			if gr.lo != at || w != gr.w {
				t.Fatalf("round %d: group %d holds ids [%d, %d) of weight %d, want ids from %d and weight %d", round, r, gr.lo, gr.hi, w, at, gr.w)
			}
			at = gr.hi
		}
		if at != row.idsAt+deg {
			t.Fatalf("round %d: the groups end at id %d, the row at %d", round, at, row.idsAt+deg)
		}
	}
}
