package dist

import (
	"sync"
	"testing"
	"time"
)

// TestExchangerDelivery checks that every PE receives exactly the batches
// addressed to it, ordered by sender.
func TestExchangerDelivery(t *testing.T) {
	const pes = 5
	ex := NewExchanger(pes)
	inboxes := make([][]Msg, pes)
	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			out := make([][]Msg, pes)
			for q := 0; q < pes; q++ {
				// Two messages to every PE, tagged with sender and receiver.
				out[q] = []Msg{
					{Kind: MsgGhostState, A: int32(pe), B: int32(q), W: 1},
					{Kind: MsgGhostState, A: int32(pe), B: int32(q), W: 2},
				}
			}
			inboxes[pe] = ex.Exchange(pe, out)
		}(pe)
	}
	wg.Wait()
	for pe, in := range inboxes {
		if len(in) != 2*pes {
			t.Fatalf("PE %d received %d messages, want %d", pe, len(in), 2*pes)
		}
		for i, msg := range in {
			wantFrom, wantW := int32(i/2), int64(i%2+1)
			if msg.A != wantFrom || msg.B != int32(pe) || msg.W != wantW {
				t.Fatalf("PE %d msg %d = %+v, want from=%d to=%d w=%d", pe, i, msg, wantFrom, pe, wantW)
			}
		}
	}
}

// TestExchangerSkew runs many supersteps with deliberately skewed PE speeds:
// a fast PE may deposit its next-round batch before a slow PE drained the
// current round, and the step tags must keep the rounds apart.
func TestExchangerSkew(t *testing.T) {
	const pes = 4
	const rounds = 50
	ex := NewExchanger(pes)
	var wg sync.WaitGroup
	errs := make(chan string, pes)
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if pe == 0 && r%7 == 0 {
					time.Sleep(time.Millisecond) // the deliberately slow PE
				}
				out := make([][]Msg, pes)
				for q := 0; q < pes; q++ {
					out[q] = []Msg{{Kind: MsgCount, A: int32(pe), W: int64(r)}}
				}
				in := ex.Exchange(pe, out)
				if len(in) != pes {
					errs <- "wrong inbox size"
					return
				}
				for i, msg := range in {
					if msg.A != int32(i) || msg.W != int64(r) {
						errs <- "round leakage: got a batch from the wrong superstep"
						return
					}
				}
			}
		}(pe)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestExchangerAllReduceOr checks the termination vote.
func TestExchangerAllReduceOr(t *testing.T) {
	const pes = 3
	for voter := -1; voter < pes; voter++ {
		ex := NewExchanger(pes)
		got := make([]bool, pes)
		var wg sync.WaitGroup
		for pe := 0; pe < pes; pe++ {
			wg.Add(1)
			go func(pe int) {
				defer wg.Done()
				got[pe] = AllReduceOr(ex, pe, pe == voter)
			}(pe)
		}
		wg.Wait()
		want := voter >= 0
		for pe, v := range got {
			if v != want {
				t.Fatalf("voter=%d: PE %d got %v, want %v", voter, pe, v, want)
			}
		}
	}
}
