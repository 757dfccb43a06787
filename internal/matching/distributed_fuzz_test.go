package matching_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/rng"
)

// recorder is a Transport that logs, per PE, every message the PE sends with
// its destination in superstep order, the flags of its votes included.
type recorder struct {
	dist.Transport
	sent [][]sent
}

// sent is one logged message.
type sent struct {
	to int
	dist.Msg
}

func (r *recorder) Exchange(pe int, out [][]dist.Msg) []dist.Msg {
	for q, msgs := range out {
		for _, msg := range msgs {
			r.sent[pe] = append(r.sent[pe], sent{q, msg})
		}
	}
	return r.Transport.Exchange(pe, out)
}

// distLevel is one graph of the fuzz target: level 0 of a generator, or the
// level a shared GPA matching contracts it to, whose rows come out unsorted,
// so that EdgeWeightTo scans them.
func distLevel(kind, level uint8) *graph.Graph {
	var g *graph.Graph
	switch kind % 5 {
	case 0:
		g = gen.RGG(8, 3)
	case 1:
		g = gen.Grid2D(14, 11)
	case 2:
		g = gen.Road(300, 4, 5)
	case 3:
		g = gen.PrefAttach(250, 3, 7)
	default:
		g = gen.RMAT(8, 6, 9)
	}
	if level%2 == 1 {
		m := matching.ComputeScratch(g, rating.NewRater(rating.ExpansionStar2, g), matching.GPA, rng.New(11), 0, nil)
		g, _ = coarsen.ContractWith(g, m, coarsen.Options{})
	}
	return g
}

// FuzzDistributedMatchesReference runs the distributed matching and its
// oracle, referenceMatchSubgraph, on the same shards over generator ×
// {GPA, SHEM, Greedy} × boundary on/off × pes {2, 3, 8} × every rating, on
// level 0 and on a contracted level, with and without a pair bound. Every
// PE's matching, and every message it sends — votes and the published
// ratings bit for bit — must be the oracle's.
func FuzzDistributedMatchesReference(f *testing.F) {
	for kind := range uint8(5) {
		for alg := range uint8(3) {
			f.Add(kind, alg, kind%2 == 0, alg, uint8(1), uint8(kind+alg), uint64(kind)*7+uint64(alg))
		}
	}
	f.Add(uint8(0), uint8(0), true, uint8(2), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(4), uint8(1), true, uint8(1), uint8(1), uint8(4), uint64(2))
	f.Fuzz(func(t *testing.T, kind, alg uint8, boundary bool, pesSel, level, rf uint8, seed uint64) {
		g := distLevel(kind, level)
		pes := []int{2, 3, 8}[pesSel%3]
		a := matching.Algorithm(alg % 3)
		f := rating.All[int(rf)%len(rating.All)]
		var maxPair int64
		if seed%3 == 0 {
			maxPair = 2 * g.MaxNodeWeight()
		}
		sgs := dist.ExtractAll(g, dist.Assign(g, dist.StrategyAuto, pes), pes)
		run := func(kernel func(ex dist.Transport, pe int) matching.Matching) ([]matching.Matching, [][]sent) {
			rec := &recorder{Transport: dist.NewExchanger(pes), sent: make([][]sent, pes)}
			ms := make([]matching.Matching, pes)
			var wg sync.WaitGroup
			for pe := range pes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ms[pe] = kernel(rec, pe)
				}()
			}
			wg.Wait()
			return ms, rec.sent
		}
		got, gotSent := run(func(ex dist.Transport, pe int) matching.Matching {
			return matching.MatchSubgraph(sgs[pe], ex, f, a, seed, maxPair, boundary, pe, nil)
		})
		want, wantSent := run(func(ex dist.Transport, pe int) matching.Matching {
			return matching.ReferenceMatchSubgraph(sgs[pe], ex, f, a, seed, maxPair, boundary, pe)
		})
		for pe := range pes {
			if !slices.Equal(got[pe], want[pe]) {
				t.Fatalf("%v/%v pes=%d: PE %d matched %v, the oracle %v", a, f, pes, pe, got[pe], want[pe])
			}
			if len(gotSent[pe]) != len(wantSent[pe]) {
				t.Fatalf("%v/%v pes=%d: PE %d sent %d messages and votes, the oracle %d", a, f, pes, pe, len(gotSent[pe]), len(wantSent[pe]))
			}
			for i, msg := range gotSent[pe] {
				w := wantSent[pe][i]
				if msg.to != w.to || msg.Kind != w.Kind || msg.A != w.A || msg.B != w.B || msg.W != w.W || math.Float64bits(msg.R) != math.Float64bits(w.R) {
					t.Fatalf("%v/%v pes=%d: PE %d's message %d is %+v, the oracle's %+v", a, f, pes, pe, i, msg, w)
				}
			}
		}
	})
}
