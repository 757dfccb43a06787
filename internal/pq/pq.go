// Package pq provides the priority queues used by the FM local search.
//
// GainQueue is an addressable binary max-heap keyed by (gain, tiebreak): the
// paper's FM refinement keeps one queue of boundary nodes per block, ordered
// by the cut-size decrease of moving the node to the other block, and needs
// key updates when a neighbor moves (DecreaseKey/IncreaseKey) as well as
// removal of arbitrary elements. Random tie breaking among equal gains is
// implemented by storing a caller-supplied tiebreak value with each element;
// the paper uses random tie breaking for the TopGain strategy.
package pq

// item is one heap entry.
type item struct {
	node     int32
	gain     int64
	tiebreak uint32
}

// GainQueue is an addressable max-heap of nodes keyed by gain. Each node id
// in [0, n) may appear at most once. Size it with NewGainQueue(n), or with
// Reset(n) on a zero value or on a queue to be reused — the form the
// refinement workspaces hold.
type GainQueue struct {
	heap []item
	pos  []int32 // pos[node] = index into heap, or -1
}

// NewGainQueue returns an empty queue able to hold node ids in [0, n).
func NewGainQueue(n int) *GainQueue {
	q := &GainQueue{pos: make([]int32, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// Len returns the number of queued nodes.
func (q *GainQueue) Len() int { return len(q.heap) }

// Empty reports whether the queue holds no nodes.
func (q *GainQueue) Empty() bool { return len(q.heap) == 0 }

// Contains reports whether node v is queued.
func (q *GainQueue) Contains(v int32) bool { return q.pos[v] >= 0 }

// Gain returns the current gain of queued node v. It panics if v is absent.
//
//kappa:invariant absent-node access is a refinement-kernel bug, not an input error
func (q *GainQueue) Gain(v int32) int64 {
	p := q.pos[v]
	if p < 0 {
		panic("pq: Gain of absent node")
	}
	return q.heap[p].gain
}

// less orders items descending by gain, then descending by tiebreak. The
// tiebreak is typically a random value, giving uniform tie breaking.
func less(a, b item) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.tiebreak > b.tiebreak
}

// Push inserts node v with the given gain and tiebreak value. It panics if v
// is already queued.
//
//kappa:invariant double-push is a refinement-kernel bug, not an input error
func (q *GainQueue) Push(v int32, gain int64, tiebreak uint32) {
	if q.pos[v] >= 0 {
		panic("pq: Push of node already in queue")
	}
	q.heap = append(q.heap, item{v, gain, tiebreak})
	q.pos[v] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

// Max returns the node with the highest gain and its gain without removing
// it. It panics on an empty queue.
//
//kappa:invariant callers check Empty first; an empty Max is a kernel bug
func (q *GainQueue) Max() (int32, int64) {
	if len(q.heap) == 0 {
		panic("pq: Max of empty queue")
	}
	return q.heap[0].node, q.heap[0].gain
}

// PopMax removes and returns the node with the highest gain: the last entry
// takes the root's place and sifts down from there.
func (q *GainQueue) PopMax() (int32, int64) {
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

// Update changes the gain of queued node v, restoring heap order.
//
//kappa:invariant absent-node update is a refinement-kernel bug, not an input error
func (q *GainQueue) Update(v int32, gain int64) {
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

// AdjustBy adds delta to the gain of node v if it is queued; it is a no-op
// otherwise. This is the common operation when a neighbor of v moves.
func (q *GainQueue) AdjustBy(v int32, delta int64) {
	if q.pos[v] < 0 || delta == 0 {
		return
	}
	q.Update(v, q.heap[q.pos[v]].gain+delta)
}

// Remove deletes node v from the queue if present.
func (q *GainQueue) Remove(v int32) {
	p := q.pos[v]
	if p < 0 {
		return
	}
	q.remove(int(p))
}

// Reset re-initializes the queue for node ids in [0, n), reusing the
// existing heap and position storage when it is large enough — the
// allocation-free equivalent of NewGainQueue(n) used by the refinement
// workspaces, which run one FM search per block pair per level per global
// iteration on the same queue pair.
//
//kappa:hotpath
func (q *GainQueue) Reset(n int) {
	if cap(q.pos) < n {
		//kappa:allow hotalloc grow-once; steady-state Resets reuse the storage
		q.pos = make([]int32, n)
	}
	q.pos = q.pos[:n]
	for i := range q.pos {
		q.pos[i] = -1
	}
	q.heap = q.heap[:0]
}

func (q *GainQueue) remove(i int) {
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

func (q *GainQueue) up(i int) {
	it := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(it, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		q.pos[q.heap[i].node] = int32(i)
		i = parent
	}
	q.heap[i] = it
	q.pos[it.node] = int32(i)
}

func (q *GainQueue) down(i int) {
	it := q.heap[i]
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && less(q.heap[r], q.heap[l]) {
			best = r
		}
		if !less(q.heap[best], it) {
			break
		}
		q.heap[i] = q.heap[best]
		q.pos[q.heap[i].node] = int32(i)
		i = best
	}
	q.heap[i] = it
	q.pos[it.node] = int32(i)
}
