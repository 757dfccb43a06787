package dist

import (
	"sync/atomic"
	"time"
)

// PEStats counts one PE's transport traffic. All fields are atomic, so the
// counters can be read (scraped by a metrics endpoint) while supersteps are
// in flight. Message and superstep counts come from the Metered wrapper,
// which sees every Transport uniformly; byte and frame counts exist only at
// the socket layer and are filled in by SocketTransport/SocketHub when a
// stats sink is attached with SetStats.
type PEStats struct {
	MsgsSent   atomic.Int64 // messages handed to Exchange (all destinations)
	MsgsRecv   atomic.Int64 // messages in returned inboxes
	BytesSent  atomic.Int64 // payload bytes written to the socket
	BytesRecv  atomic.Int64 // payload bytes read from the socket
	FramesSent atomic.Int64 // superstep frames written
	FramesRecv atomic.Int64 // superstep frames read
	Supersteps atomic.Int64 // Exchange calls (an AllReduceOr vote is one)
	// BarrierNanos is the time the PE spent blocked inside Exchange — the
	// superstep barrier plus, on socket transports, encode/decode and I/O.
	BarrierNanos atomic.Int64
}

// PETotals is a plain-value snapshot of one PE's counters.
type PETotals struct {
	MsgsSent, MsgsRecv     int64
	BytesSent, BytesRecv   int64
	FramesSent, FramesRecv int64
	Supersteps             int64
	BarrierNanos           int64
}

// TransportStats aggregates per-PE transport counters for one run (or one
// long-lived transport). Safe for concurrent use.
type TransportStats struct {
	pe []PEStats
}

// NewTransportStats returns zeroed counters for pes PEs.
func NewTransportStats(pes int) *TransportStats {
	return &TransportStats{pe: make([]PEStats, pes)}
}

// PEs returns the number of tracked PEs.
func (s *TransportStats) PEs() int {
	if s == nil {
		return 0
	}
	return len(s.pe)
}

// PE returns PE pe's counters, or nil when pe is out of range (or s is nil),
// so instrumentation sites can count unconditionally.
func (s *TransportStats) PE(pe int) *PEStats {
	if s == nil || pe < 0 || pe >= len(s.pe) {
		return nil
	}
	return &s.pe[pe]
}

// Snapshot returns a plain-value copy of every PE's counters.
func (s *TransportStats) Snapshot() []PETotals {
	if s == nil {
		return nil
	}
	out := make([]PETotals, len(s.pe))
	for i := range s.pe {
		p := &s.pe[i]
		out[i] = PETotals{
			MsgsSent:     p.MsgsSent.Load(),
			MsgsRecv:     p.MsgsRecv.Load(),
			BytesSent:    p.BytesSent.Load(),
			BytesRecv:    p.BytesRecv.Load(),
			FramesSent:   p.FramesSent.Load(),
			FramesRecv:   p.FramesRecv.Load(),
			Supersteps:   p.Supersteps.Load(),
			BarrierNanos: p.BarrierNanos.Load(),
		}
	}
	return out
}

// Totals returns the sum over all PEs.
func (s *TransportStats) Totals() PETotals {
	var t PETotals
	for _, p := range s.Snapshot() {
		t.MsgsSent += p.MsgsSent
		t.MsgsRecv += p.MsgsRecv
		t.BytesSent += p.BytesSent
		t.BytesRecv += p.BytesRecv
		t.FramesSent += p.FramesSent
		t.FramesRecv += p.FramesRecv
		t.Supersteps += p.Supersteps
		t.BarrierNanos += p.BarrierNanos
	}
	return t
}

// Metered wraps t so every superstep is counted into s: messages in and out,
// superstep count, and the time each PE spends blocked in Exchange. The
// wrapper works for any Transport (Exchanger and SocketTransport alike) and
// adds two atomic adds and one clock read per superstep — nothing when s is
// nil, in which case t is returned unwrapped.
func Metered(t Transport, s *TransportStats) Transport {
	if s == nil {
		return t
	}
	return &meteredTransport{t: t, s: s}
}

type meteredTransport struct {
	t Transport
	s *TransportStats
}

// PEs returns the wrapped transport's PE count.
func (m *meteredTransport) PEs() int { return m.t.PEs() }

// Exchange counts the superstep and delegates.
func (m *meteredTransport) Exchange(pe int, out [][]Msg) []Msg {
	sent := 0
	for _, b := range out {
		sent += len(b)
	}
	start := time.Now()
	in := m.t.Exchange(pe, out)
	if st := m.s.PE(pe); st != nil {
		st.BarrierNanos.Add(time.Since(start).Nanoseconds())
		st.Supersteps.Add(1)
		st.MsgsSent.Add(int64(sent))
		st.MsgsRecv.Add(int64(len(in)))
	}
	return in
}
