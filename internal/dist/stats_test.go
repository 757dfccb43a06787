package dist

import (
	"sync"
	"testing"
)

// TestMeteredCounts drives a metered Exchanger through supersteps from every
// PE and checks the per-PE accounting: messages out, messages in, superstep
// count (including the AllReduceOr vote), and a non-negative barrier clock.
func TestMeteredCounts(t *testing.T) {
	const pes = 3
	stats := NewTransportStats(pes)
	tr := Metered(NewExchanger(pes), stats)
	if tr.PEs() != pes {
		t.Fatalf("PEs() = %d, want %d", tr.PEs(), pes)
	}
	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			// Each PE sends one message to every peer (not itself).
			out := make([][]Msg, pes)
			for q := 0; q < pes; q++ {
				if q != pe {
					out[q] = []Msg{{A: int32(pe), B: int32(q)}}
				}
			}
			in := tr.Exchange(pe, out)
			if len(in) != pes-1 {
				t.Errorf("PE %d received %d msgs, want %d", pe, len(in), pes-1)
			}
			if !AllReduceOr(tr, pe, pe == 0) {
				t.Errorf("PE %d: OR vote must be true", pe)
			}
		}(pe)
	}
	wg.Wait()
	for pe := 0; pe < pes; pe++ {
		st := stats.PE(pe)
		// Supersteps: the explicit Exchange plus AllReduceOr's.
		if got := st.Supersteps.Load(); got != 2 {
			t.Errorf("PE %d supersteps = %d, want 2", pe, got)
		}
		// The data superstep sent pes-1 msgs; the vote sends one to every PE
		// including itself, and receives pes votes.
		if got := st.MsgsSent.Load(); got != int64(pes-1+pes) {
			t.Errorf("PE %d msgs sent = %d, want %d", pe, got, pes-1+pes)
		}
		if got := st.MsgsRecv.Load(); got != int64(pes-1+pes) {
			t.Errorf("PE %d msgs recv = %d, want %d", pe, got, pes-1+pes)
		}
		if st.BarrierNanos.Load() < 0 {
			t.Errorf("PE %d negative barrier time", pe)
		}
	}
	totals := stats.Totals()
	if totals.MsgsSent != totals.MsgsRecv {
		t.Fatalf("conservation violated: sent %d, recv %d", totals.MsgsSent, totals.MsgsRecv)
	}
}

// TestMeteredNilIdentity pins the no-observer contract: nil stats must
// return the transport unwrapped — zero overhead when observability is off.
func TestMeteredNilIdentity(t *testing.T) {
	e := NewExchanger(2)
	if got := Metered(e, nil); got != Transport(e) {
		t.Fatal("Metered(t, nil) must be the identity")
	}
}

// TestStatsNilSafe pins the nil-safety of the sink: instrumentation sites
// count unconditionally through nil receivers and out-of-range PEs.
func TestStatsNilSafe(t *testing.T) {
	var s *TransportStats
	if s.PEs() != 0 || s.PE(0) != nil || s.Snapshot() != nil {
		t.Fatal("nil TransportStats must degrade to zeros")
	}
	s2 := NewTransportStats(2)
	if s2.PE(-1) != nil || s2.PE(2) != nil {
		t.Fatal("out-of-range PE must be nil")
	}
	var zero PETotals
	if s2.Totals() != zero {
		t.Fatal("fresh stats must total zero")
	}
}
