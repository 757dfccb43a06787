package dist

import (
	"cmp"
	"slices"
)

// MsgKind tags the payload of a Msg exchanged between PEs during distributed
// coarsening.
type MsgKind uint8

const (
	// MsgGhostState publishes the matching state of a boundary node to the
	// PEs that hold it as a ghost: A is the global node id, R the rating of
	// its current local match (0 when unmatched), and W is non-zero when the
	// node is finally matched across a cut and no longer accepts proposals.
	MsgGhostState MsgKind = iota
	// MsgProposal proposes to match the cut edge {A, B}: A is the proposing
	// (sender-owned) global node id, B the receiver-owned global node id, R
	// the sender-side rating of the edge.
	MsgProposal
	// MsgCoarseID publishes the coarse global id B of the fine global node A
	// (the coarse id of a pair matched across a cut, sent to the partner).
	MsgCoarseID
	// MsgCount broadcasts a per-PE tally in W (e.g. the number of coarse
	// nodes a PE owns, for the prefix sum of the global coarse numbering).
	MsgCount
	// MsgFlag carries a single boolean (W != 0) for all-reduce rounds.
	MsgFlag
)

// Msg is one unit of ghost information exchanged between PEs. The field
// meaning depends on Kind; unused fields are zero.
type Msg struct {
	Kind MsgKind
	A, B int32
	W    int64
	R    float64
}

// batch is everything one PE sends to one mailbox in one superstep.
type batch struct {
	from int
	step uint64
	msgs []Msg
}

// Exchanger is channel-backed bulk-synchronous message passing between the
// PE goroutines of distributed coarsening: one mailbox (buffered channel)
// per PE. Every PE must call Exchange once per superstep; the call doubles
// as a barrier, because each mailbox receives exactly one batch from every
// PE (empty batches included) before Exchange returns.
//
// The inbox is returned ordered by sender PE, and each sender's messages
// keep their send order, so receivers observe a schedule-independent,
// deterministic message sequence — the property that makes distributed
// coarsening byte-reproducible under a fixed seed.
type Exchanger struct {
	pes   int
	boxes []chan batch
	// Per-receiver state, touched only by that PE's goroutine: the current
	// superstep number, batches that arrived one step early (a sender may
	// run at most one superstep ahead before it blocks waiting for everyone
	// else's batches, so a single stash level suffices) and the batches of
	// the current step. Both buffers hold pes batches from the start, so
	// whether a sender ran ahead never changes what a superstep allocates.
	step           []uint64
	early, current [][]batch
}

// NewExchanger returns an Exchanger connecting pes PEs.
func NewExchanger(pes int) *Exchanger {
	e := &Exchanger{
		pes:     pes,
		boxes:   make([]chan batch, pes),
		step:    make([]uint64, pes),
		early:   make([][]batch, pes),
		current: make([][]batch, pes),
	}
	for i := range e.boxes {
		// Room for every sender's current batch plus a one-step-ahead batch,
		// so no Exchange call ever blocks on a send.
		e.boxes[i] = make(chan batch, 2*pes)
		e.early[i], e.current[i] = make([]batch, 0, pes), make([]batch, 0, pes)
	}
	return e
}

// PEs returns the number of connected PEs.
func (e *Exchanger) PEs() int { return e.pes }

// Exchange performs one superstep for PE pe: out[q] is delivered to PE q's
// mailbox (out may be shorter than PEs(); missing tails count as empty), and
// the PE's own inbox — the concatenation of every sender's batch in sender
// order — is returned. All PEs must call Exchange the same number of times;
// the call blocks until every PE's batch for this superstep has arrived.
func (e *Exchanger) Exchange(pe int, out [][]Msg) []Msg {
	step := e.step[pe]
	e.step[pe]++
	for q := 0; q < e.pes; q++ {
		var msgs []Msg
		if q < len(out) {
			msgs = out[q]
		}
		e.boxes[q] <- batch{from: pe, step: step, msgs: msgs}
	}
	// Adopt batches stashed by the previous superstep, then receive until one
	// batch per sender for this step is in; later-step arrivals are stashed.
	batches := append(e.current[pe][:0], e.early[pe]...)
	clear(e.early[pe])
	e.early[pe] = e.early[pe][:0]
	for len(batches) < e.pes {
		b := <-e.boxes[pe]
		if b.step != step {
			e.early[pe] = append(e.early[pe], b)
			continue
		}
		batches = append(batches, b)
	}
	slices.SortFunc(batches, func(a, b batch) int { return cmp.Compare(a.from, b.from) })
	total := 0
	for _, b := range batches {
		total += len(b.msgs)
	}
	in := make([]Msg, 0, total)
	for i, b := range batches {
		in = append(in, b.msgs...)
		batches[i] = batch{} // the next superstep must not keep this one's messages alive
	}
	return in
}
