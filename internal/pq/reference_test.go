package pq

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// referenceQueue is the gain queue as it stood before the run: one
// addressable binary max-heap keyed by (gain, tiebreak), equal keys ordered by
// the heap's layout. Kept verbatim but for the names as the differential
// oracle of GainQueue.
type refItem struct {
	node     int32
	gain     int64
	tiebreak uint32
}

type referenceQueue struct {
	heap []refItem
	pos  []int32 // pos[node] = index into heap, or -1
}

func newReferenceQueue(n int) *referenceQueue {
	q := &referenceQueue{pos: make([]int32, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

func (q *referenceQueue) Len() int { return len(q.heap) }

func (q *referenceQueue) Empty() bool { return len(q.heap) == 0 }

func (q *referenceQueue) Contains(v int32) bool { return q.pos[v] >= 0 }

func (q *referenceQueue) Gain(v int32) int64 {
	p := q.pos[v]
	if p < 0 {
		panic("pq: Gain of absent node")
	}
	return q.heap[p].gain
}

func refLess(a, b refItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.tiebreak > b.tiebreak
}

func (q *referenceQueue) Push(v int32, gain int64, tiebreak uint32) {
	if q.pos[v] >= 0 {
		panic("pq: Push of node already in queue")
	}
	q.heap = append(q.heap, refItem{v, gain, tiebreak})
	q.pos[v] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

func (q *referenceQueue) Max() (int32, int64) {
	if len(q.heap) == 0 {
		panic("pq: Max of empty queue")
	}
	return q.heap[0].node, q.heap[0].gain
}

func (q *referenceQueue) PopMax() (int32, int64) {
	v, g := q.Max()
	last := len(q.heap) - 1
	q.pos[v] = -1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return v, g
}

func (q *referenceQueue) Update(v int32, gain int64) {
	p := q.pos[v]
	if p < 0 {
		panic("pq: Update of absent node")
	}
	old := q.heap[p].gain
	q.heap[p].gain = gain
	switch {
	case gain > old:
		q.up(int(p))
	case gain < old:
		q.down(int(p))
	}
}

func (q *referenceQueue) AdjustBy(v int32, delta int64) {
	if q.pos[v] < 0 || delta == 0 {
		return
	}
	q.Update(v, q.heap[q.pos[v]].gain+delta)
}

func (q *referenceQueue) Remove(v int32) {
	p := q.pos[v]
	if p < 0 {
		return
	}
	q.remove(int(p))
}

func (q *referenceQueue) remove(i int) {
	last := len(q.heap) - 1
	q.pos[q.heap[i].node] = -1
	if i != last {
		q.heap[i] = q.heap[last]
		q.pos[q.heap[i].node] = int32(i)
	}
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
}

func (q *referenceQueue) up(i int) {
	it := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(it, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		q.pos[q.heap[i].node] = int32(i)
		i = parent
	}
	q.heap[i] = it
	q.pos[it.node] = int32(i)
}

func (q *referenceQueue) down(i int) {
	it := q.heap[i]
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && refLess(q.heap[r], q.heap[l]) {
			best = r
		}
		if !refLess(q.heap[best], it) {
			break
		}
		q.heap[i] = q.heap[best]
		q.pos[q.heap[i].node] = int32(i)
		i = best
	}
	q.heap[i] = it
	q.pos[it.node] = int32(i)
}

// queueInput reads a differential sequence; past its end every read is 0.
type queueInput struct {
	data []byte
	i    int
}

func (in *queueInput) next() byte {
	if in.i >= len(in.data) {
		return 0
	}
	in.i++
	return in.data[in.i-1]
}

func (in *queueInput) more() bool { return in.i < len(in.data) }

// queueCoverage counts what a differential sequence exercised.
type queueCoverage struct {
	runPops    int // pops the run answered
	heapPops   int // pops the heap answered
	movedOut   int // run entries whose gain changed
	fallbacks  int // seals that pushed their entries into the heap
	splits     int // nested splits of the run
	collisions int // pops that had a full (gain, tiebreak) tie to settle by node
}

func (c *queueCoverage) add(o queueCoverage) {
	c.runPops += o.runPops
	c.heapPops += o.heapPops
	c.movedOut += o.movedOut
	c.fallbacks += o.fallbacks
	c.splits += o.splits
	c.collisions += o.collisions
}

// checkQueueMatchesReference decodes a queue size, a mode and a sequence of
// operations from data and drives a GainQueue, the reference heap and a
// brute-force model of the total order through it: a staging phase that
// Stages nodes 0, 1, … (and Pushes a few) and Seals, then Push, PopMax, Max,
// AdjustBy, Update, Remove, Contains, Len and Gain on decoded nodes. Every
// answer must be the model's. With distinct tiebreaks (every entry draws a
// fresh one) the reference, whose equal keys fall as its layout has them,
// must agree op for op too; with collisions (tiebreaks 0 and 1 only, small
// gains) the node decides, and only the model is asked. Wide mode scales
// gains by 2^28, so most seals take the heap fallback.
func checkQueueMatchesReference(t *testing.T, data []byte) queueCoverage {
	t.Helper()
	in := &queueInput{data: data}
	n := 1 + int(in.next()) | int(in.next()&0x0f)<<8
	mode := in.next()
	collide, wide := mode&1 != 0, mode&2 != 0
	staged := min(n, int(in.next())|int(in.next()&0x0f)<<8)

	q, ref := NewGainQueue(n), newReferenceQueue(n)
	model := make([]item, n)
	queued := make([]bool, n)
	var cov queueCoverage
	fresh := uint32(0)
	tiebreak := func() uint32 {
		fresh++
		if collide {
			return fresh & 1
		}
		return fresh * 2654435761 // odd: distinct for every draw
	}
	value := func() int64 {
		g := int64(int8(in.next()))
		if collide {
			g %= 4
		}
		if wide {
			g <<= 28
		}
		return g
	}
	node := func() int32 { return int32((int(in.next()) | int(in.next())<<8) % n) }
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("n %d collide %v wide %v step %d: %s", n, collide, wide, step, fmt.Sprintf(format, args...))
	}
	best := func() (int32, bool) {
		v, tie := int32(-1), false
		for u := range model {
			if !queued[u] {
				continue
			}
			it := model[u]
			if v >= 0 && it.gain == model[v].gain && it.tiebreak == model[v].tiebreak {
				tie = true
			}
			if v < 0 || less(it, model[v]) {
				v = int32(u)
			}
		}
		return v, tie
	}
	push := func(v int32, stage bool) {
		g, tb := value(), tiebreak()
		if stage {
			q.Stage(v, g, tb)
		} else {
			q.Push(v, g, tb)
		}
		ref.Push(v, g, tb)
		model[v], queued[v] = item{g, v, tb}, true
	}

	for v := int32(0); v < int32(staged); v++ {
		push(v, in.next()&7 != 0)
	}
	q.Seal()
	if len(q.staged) > 0 && q.live == 0 {
		cov.fallbacks++
	}
	size := func() int {
		c := 0
		for _, ok := range queued {
			if ok {
				c++
			}
		}
		return c
	}
	for step := 0; in.more(); step++ {
		switch op := in.next() % 9; {
		case op == 0:
			if v := node(); !queued[v] {
				push(v, false)
			}
		case op <= 2 && size() > 0:
			want, tie := best()
			if tie {
				cov.collisions++
			}
			fromRun := q.best() >= 0
			var v int32
			var g int64
			if op == 1 {
				v, g = q.PopMax()
			} else {
				v, g = q.Max()
			}
			if v != want || g != model[want].gain {
				fail(step, "op %d = (%d,%d), total order says (%d,%d)", op, v, g, want, model[want].gain)
			}
			// Under collisions the reference may pick another node of the
			// tie; it drops the one the queue popped instead, so it stays
			// the model's for Contains, Gain and Len.
			if rv, rg := ref.Max(); !collide && (rv != v || rg != g) {
				fail(step, "op %d = (%d,%d), reference (%d,%d)", op, v, g, rv, rg)
			}
			if op == 1 {
				ref.Remove(v)
				queued[v] = false
				if fromRun {
					cov.runPops++
				} else {
					cov.heapPops++
				}
			}
		case op == 3 || op == 4:
			v := node()
			if op == 4 && !queued[v] {
				continue
			}
			inRun := q.pos[v] < -1
			g := value()
			if op == 3 {
				q.AdjustBy(v, g)
				ref.AdjustBy(v, g)
				g += model[v].gain
			} else {
				q.Update(v, g)
				ref.Update(v, g)
			}
			if queued[v] {
				if inRun && g != model[v].gain {
					cov.movedOut++
				}
				model[v].gain = g
			}
		case op == 5:
			v := node()
			q.Remove(v)
			ref.Remove(v)
			queued[v] = false
		case op == 6:
			if v := node(); q.Contains(v) != queued[v] || ref.Contains(v) != queued[v] {
				fail(step, "Contains(%d) = %v, reference %v, model %v", v, q.Contains(v), ref.Contains(v), queued[v])
			}
		case op == 7:
			if v := node(); queued[v] && (q.Gain(v) != model[v].gain || ref.Gain(v) != model[v].gain) {
				fail(step, "Gain(%d) = %d, reference %d, model %d", v, q.Gain(v), ref.Gain(v), model[v].gain)
			}
		}
		if c := size(); q.Len() != c || ref.Len() != c || q.Empty() != (c == 0) {
			fail(step, "Len = %d, reference %d, model %d", q.Len(), ref.Len(), c)
		}
		cov.splits = max(cov.splits, q.depth-1)
	}
	return cov
}

// TestGainQueueMatchesReference runs the differential over random sequences
// in each mode, from queues of a few nodes to runs of a few thousand, and
// checks that the matrix reached the run and its nested splits, the heap,
// the moves between them, the fallback and full ties.
func TestGainQueueMatchesReference(t *testing.T) {
	r := rng.New(26)
	var total queueCoverage
	for i := 0; i < 600; i++ {
		n := 1 + r.Intn(1<<(2+i%11))
		data := []byte{byte(n - 1), byte((n - 1) >> 8), byte(i % 4), byte(n), byte(n >> 8)}
		// Staging flags and gains: clustered on a few values, or spread.
		spread := 1 + r.Intn(256)
		for v := 0; v < n; v++ {
			data = append(data, byte(r.Intn(8)), byte(r.Intn(spread)))
		}
		for op := r.Intn(3 * n); op > 0; op-- {
			data = append(data, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		}
		total.add(checkQueueMatchesReference(t, data))
	}
	t.Logf("coverage: %+v", total)
	if total.runPops == 0 || total.heapPops == 0 || total.movedOut == 0 || total.fallbacks == 0 || total.splits == 0 || total.collisions == 0 {
		t.Fatalf("the sequences missed a path: %+v", total)
	}
}

// FuzzGainQueueMatchesReference checks the queue on decoded sequences.
func FuzzGainQueueMatchesReference(f *testing.F) {
	f.Add([]byte{40, 0, 0, 30, 0, 1, 5, 1, 5, 1, 5, 2, 3, 1, 9, 1, 1, 1, 1, 3, 2, 0, 40, 1, 1, 1, 2, 2})
	f.Add([]byte{63, 0, 1, 63, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 1, 3, 1, 1, 1, 1})
	f.Add([]byte("a run of packed keys pops what the heap would have popped"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueueMatchesReference(t, data)
	})
}
