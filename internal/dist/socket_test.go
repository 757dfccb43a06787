// Socket-transport tests live in the external test package so they can use
// internal/wire's MsgCodec (wire imports dist; an internal test would cycle).
package dist_test

import (
	"bytes"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/wire"
)

// dialAll starts a hub on a unix socket and connects pes local PEs.
func dialAll(t *testing.T, pes int) (*dist.SocketTransport, chan error) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "hub.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	hub := dist.NewSocketHub(pes)
	errc := make(chan error, 1)
	go func() {
		defer ln.Close()
		errc <- hub.Serve(ln)
	}()
	tr := dist.NewSocketTransport(pes, wire.MsgCodec{})
	for pe := 0; pe < pes; pe++ {
		if err := tr.Dial("unix", sock, pe); err != nil {
			t.Fatal(err)
		}
	}
	return tr, errc
}

// TestSocketTransportExchange checks the basic superstep contract over real
// sockets: sender-ordered inboxes, empty batches, several rounds.
func TestSocketTransportExchange(t *testing.T) {
	const pes = 3
	tr, errc := dialAll(t, pes)
	done := make(chan [][]dist.Msg, 1)
	go func() {
		inboxes := make([][]dist.Msg, pes)
		var wg chan struct{} = make(chan struct{})
		for pe := 0; pe < pes; pe++ {
			go func(pe int) {
				for round := 0; round < 3; round++ {
					out := make([][]dist.Msg, pes)
					for q := 0; q < pes; q++ {
						if (pe+round)%2 == 0 { // exercise empty batches too
							out[q] = []dist.Msg{{Kind: dist.MsgCount, A: int32(pe), B: int32(q), W: int64(round)}}
						}
					}
					in := tr.Exchange(pe, out)
					if round == 2 {
						inboxes[pe] = append([]dist.Msg(nil), in...)
					}
				}
				wg <- struct{}{}
			}(pe)
		}
		for pe := 0; pe < pes; pe++ {
			<-wg
		}
		done <- inboxes
	}()
	inboxes := <-done
	for pe := 0; pe < pes; pe++ {
		last := int32(-1)
		for _, m := range inboxes[pe] {
			if m.B != int32(pe) || m.W != 2 {
				t.Fatalf("PE %d got stray message %+v", pe, m)
			}
			if m.A < last {
				t.Fatalf("PE %d inbox not in sender order: %v", pe, inboxes[pe])
			}
			last = m.A
		}
	}
	tr.Close()
	if err := <-errc; err != nil {
		t.Fatalf("hub: %v", err)
	}
}

// TestSocketTransportMatchesExchanger is the drop-in proof for the socket
// backend at the seam every distributed level runs through:
// core.DistributedLevel over a SocketTransport (a real unix-socket hub,
// wire-codec frames) must contract each of three levels to the graph and
// fine→coarse map it does over the in-process Exchanger.
func TestSocketTransportMatchesExchanger(t *testing.T) {
	const pes = 4
	cur := gen.RGG(11, 5)
	cfg := core.NewConfig(core.Fast, 4)
	cfg.Seed = 99
	cfg.PEs = pes
	maxPair := 3 * cur.TotalNodeWeight() / (2 * int64(core.StopRule(cur.NumNodes(), &cfg)))

	tr, errc := dialAll(t, pes)
	for level := range 3 {
		blocks := dist.Assign(cur, cfg.Distribution, pes)
		want, wantF2C, _, _ := core.DistributedLevel(nil, cur, &cfg, blocks, dist.NewExchanger(pes), level, maxPair, nil)
		got, gotF2C, _, _ := core.DistributedLevel(nil, cur, &cfg, blocks, tr, level, maxPair, nil)
		if want == nil {
			t.Fatalf("level %d: empty matching", level)
		}
		if got == nil || !slices.Equal(gotF2C, wantF2C) ||
			!bytes.Equal(graphio.AppendBinary(nil, 0, got), graphio.AppendBinary(nil, 0, want)) {
			t.Fatalf("level %d: socket transport diverged from Exchanger", level)
		}
		cur = want
	}
	tr.Close()
	if err := <-errc; err != nil {
		t.Fatalf("hub: %v", err)
	}
}

// TestSocketTransportAllReduce covers the OR-vote superstep over sockets.
func TestSocketTransportAllReduce(t *testing.T) {
	const pes = 2
	tr, errc := dialAll(t, pes)
	res := make([]bool, pes)
	done := make(chan struct{}, pes)
	for pe := 0; pe < pes; pe++ {
		go func(pe int) {
			res[pe] = dist.AllReduceOr(tr, pe, pe == 1)
			done <- struct{}{}
		}(pe)
	}
	for pe := 0; pe < pes; pe++ {
		<-done
	}
	if !res[0] || !res[1] {
		t.Fatalf("OR vote lost: %v", res)
	}
	tr.Close()
	if err := <-errc; err != nil {
		t.Fatalf("hub: %v", err)
	}
}

// TestMatchSubgraphOverSockets runs the exported per-PE matching kernel —
// the code path out-of-process workers execute — over the socket transport
// and checks it agrees with the in-process distributed matcher.
func TestMatchSubgraphOverSockets(t *testing.T) {
	g := gen.Grid2D(24, 24)
	const pes = 3
	assign := dist.Assign(g, dist.StrategyRanges, pes)
	sgs := dist.ExtractAll(g, assign, pes)

	want := matching.DistributedBounded(sgs, dist.NewExchanger(pes), core.NewConfig(core.Fast, pes).Rating, matching.GPA, 7, 0, true)

	tr, errc := dialAll(t, pes)
	got := make([]matching.Matching, pes)
	done := make(chan struct{}, pes)
	for pe := 0; pe < pes; pe++ {
		go func(pe int) {
			got[pe] = matching.MatchSubgraph(sgs[pe], tr, core.NewConfig(core.Fast, pes).Rating, matching.GPA, 7, 0, true, pe, nil)
			done <- struct{}{}
		}(pe)
	}
	for pe := 0; pe < pes; pe++ {
		<-done
	}
	tr.Close()
	if err := <-errc; err != nil {
		t.Fatalf("hub: %v", err)
	}
	for pe := range want {
		if !reflect.DeepEqual(want[pe], got[pe]) {
			t.Fatalf("PE %d matching diverged over sockets", pe)
		}
	}
}
