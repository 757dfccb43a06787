package dist

// Transport is the message-passing seam of distributed coarsening: the
// bulk-synchronous superstep that the per-PE level kernel core.PELevel —
// matching.MatchSubgraph, the vote (AllReduceOr), coarsen.ContractSubgraph —
// is written against. Every PE participating in
// a superstep calls Exchange exactly once; the call doubles as a barrier and
// returns the PE's inbox ordered by sender PE with each sender's messages in
// send order — the property that makes distributed coarsening byte-identical
// under a fixed seed regardless of goroutine scheduling.
//
// The channel-backed Exchanger is the in-process implementation and
// SocketTransport the out-of-process one; dist/socket_test.go pins that
// swapping them does not change a byte of the result.
type Transport interface {
	// PEs returns the number of connected processing elements.
	PEs() int
	// Exchange performs one superstep for PE pe: out[q] is delivered to PE
	// q (out may be shorter than PEs(); missing tails count as empty), and
	// the call blocks until every PE's batch for this superstep is in. The
	// returned inbox is ordered by sender PE, each sender's messages in
	// send order.
	Exchange(pe int, out [][]Msg) []Msg
}

// Exchanger is the default Transport.
var _ Transport = (*Exchanger)(nil)

// AllReduceOr runs one superstep of t for PE pe that ORs v across all PEs:
// it sends a flag to every PE and ORs the flags it receives, so every PE
// gets the same result. It is the termination vote of iterated rounds.
func AllReduceOr(t Transport, pe int, v bool) bool {
	var w int64
	if v {
		w = 1
	}
	out := make([][]Msg, t.PEs())
	for q := range out {
		out[q] = []Msg{{Kind: MsgFlag, W: w}}
	}
	any := false
	for _, m := range t.Exchange(pe, out) {
		if m.W != 0 {
			any = true
		}
	}
	return any
}
