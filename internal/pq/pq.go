// Package pq provides the priority queue used by the FM local search.
//
// GainQueue is an addressable max-queue of nodes keyed by gain: the paper's
// FM refinement keeps one queue of boundary nodes per block, ordered by the
// cut-size decrease of moving the node to the other block, and needs key
// updates when a neighbor moves as well as removal of arbitrary elements.
// Random tie breaking among equal gains — the paper uses it for the TopGain
// strategy — comes from a caller-supplied tiebreak value stored with each
// element, and the node id settles what is left, so the order is total: gain
// descending, then tiebreak descending, then node ascending.
//
// A queue has two tiers that agree on that order. The run holds the entries
// a search seeds the queue with (Stage, then Seal), each packed into one
// 64-bit key, and orders them lazily: one counting pass splits the keys by
// their leading bits into buckets of about four, and a bucket is ordered —
// sorted, or split again by its next bits — only when the head reaches it,
// so a search pays for the entries it pops, not for the band it queued. An
// entry whose gain never changes thus needs no heap — the idea of Fiduccia
// and Mattheyses' bucket gain structure (DAC 1982). An addressable binary
// max-heap holds the rest: entries pushed with Push, and run entries whose
// gain changed, which leave the run for it.
package pq

import (
	"math"
	"math/bits"
	"slices"
)

// item is one queue entry.
type item struct {
	gain     int64
	node     int32
	tiebreak uint32
}

// less is the queue order: descending by gain, then descending by tiebreak
// (typically a random value, giving uniform tie breaking), then ascending by
// node.
func less(a, b item) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.tiebreak != b.tiebreak {
		return a.tiebreak > b.tiebreak
	}
	return a.node < b.node
}

// Run ordering: a bucket of at most leafKeys keys is sorted, a larger one
// split again by its next key bits, into at most 2^maxSplitBits buckets. A
// split of more than leafKeys keys takes at least 3 of a key's 64 bits, so
// no more than maxFrames splits are ever open.
const (
	leafKeys     = 16
	maxSplitBits = 8
	maxFrames    = 24
)

// frame is one split of the run: the keys of run[next:end] are bucketed by
// their digit (key>>shift) & (1<<bits - 1), in ascending digit order, and
// each bucket is still to be ordered.
type frame struct {
	end         int
	shift, bits uint8
}

// GainQueue is an addressable max-queue of nodes keyed by gain. Each node id
// in [0, n) may appear at most once. Size it with NewGainQueue(n), or with
// Reset(n) on a zero value or on a queue to be reused — the form the
// refinement workspaces hold.
type GainQueue struct {
	heap []item
	pos  []int32 // pos[node] = index into heap, -2-i for staged[i], or -1

	// The run: staged entries and their keys in run, where run[:head] is
	// popped or stale, run[head:next] in order, and run[next:] split by the
	// frames[:depth], innermost last.
	staged   []item
	run      []uint64
	head     int
	next     int
	live     int // staged entries still queued
	frames   [maxFrames]frame
	depth    int
	count    [2 << maxSplitBits]int32 // split scratch
	minGain  int64                    // of the staged entries
	maxGain  int64
	nodeBits uint8
	sealed   bool
}

// NewGainQueue returns an empty queue able to hold node ids in [0, n).
func NewGainQueue(n int) *GainQueue {
	q := &GainQueue{}
	q.Reset(n)
	return q
}

// Len returns the number of queued nodes.
func (q *GainQueue) Len() int { return len(q.heap) + q.live }

// Empty reports whether the queue holds no nodes.
func (q *GainQueue) Empty() bool { return q.Len() == 0 }

// Contains reports whether node v is queued.
func (q *GainQueue) Contains(v int32) bool { return q.pos[v] != -1 }

// Gain returns the current gain of queued node v. It panics if v is absent.
//
//kappa:invariant absent-node access is a refinement-kernel bug, not an input error
func (q *GainQueue) Gain(v int32) int64 {
	p := q.pos[v]
	switch {
	case p >= 0:
		return q.heap[p].gain
	case p < -1:
		return q.staged[-2-p].gain
	}
	panic("pq: Gain of absent node")
}

// Push inserts node v into the heap with the given gain and tiebreak value.
// It panics if v is already queued.
//
//kappa:invariant double-push is a refinement-kernel bug, not an input error
func (q *GainQueue) Push(v int32, gain int64, tiebreak uint32) {
	if q.pos[v] != -1 {
		panic("pq: Push of node already in queue")
	}
	q.heap = append(q.heap, item{gain, v, tiebreak})
	q.pos[v] = int32(len(q.heap) - 1)
	q.up(len(q.heap) - 1)
}

// Stage queues node v with the given gain and tiebreak value into the run,
// which Seal orders. A queue with staged entries must be sealed before it is
// read or changed other than by Stage and Push. Stage panics if v is already
// queued or the queue was sealed since its last Reset.
//
//kappa:hotpath
//kappa:invariant double-stage and stage-after-seal are refinement-kernel bugs
func (q *GainQueue) Stage(v int32, gain int64, tiebreak uint32) {
	if q.pos[v] != -1 || q.sealed {
		panic("pq: Stage of a queued node or into a sealed queue")
	}
	q.minGain, q.maxGain = min(q.minGain, gain), max(q.maxGain, gain)
	q.pos[v] = int32(-2 - len(q.staged))
	//kappa:allow hotalloc amortized growth; steady-state Resets reuse the storage
	q.staged = append(q.staged, item{gain, v, tiebreak})
	q.live++
}

// Seal packs the staged entries into the run's keys — gain offset below the
// largest staged gain, then complemented tiebreak, then node, so that the
// queue order is ascending key order — and splits them by their leading bits
// into buckets of about four keys. A bucket is ordered only when the head
// reaches it. When the key does not fit — the staged gains span 2^(32-b) or
// more, b the bit length of n-1 — Seal pushes the staged entries into the
// heap instead, in Stage order.
//
//kappa:hotpath
func (q *GainQueue) Seal() {
	q.sealed = true
	nodeBits := uint8(bits.Len32(uint32(len(q.pos) - 1)))
	span := uint8(bits.Len64(uint64(q.maxGain) - uint64(q.minGain)))
	if span > 32-nodeBits {
		q.live = 0
		for _, it := range q.staged {
			q.pos[it.node] = -1
			q.Push(it.node, it.gain, it.tiebreak)
		}
		return
	}
	q.nodeBits = nodeBits
	if cap(q.run) < len(q.staged) {
		//kappa:allow hotalloc grow-once to the staged array's capacity
		q.run = make([]uint64, cap(q.staged))
	}
	q.run = q.run[:len(q.staged)]
	for i, it := range q.staged {
		q.run[i] = (uint64(q.maxGain)-uint64(it.gain))<<(32+nodeBits) | uint64(^it.tiebreak)<<nodeBits | uint64(it.node)
	}
	q.split(0, len(q.run), 32+nodeBits+span)
}

// Max returns the node with the highest gain and its gain without removing
// it. It panics on an empty queue.
//
//kappa:hotpath
func (q *GainQueue) Max() (int32, int64) {
	if i := q.best(); i >= 0 {
		it := q.entry(q.run[i])
		return it.node, it.gain
	}
	return q.heap[0].node, q.heap[0].gain
}

// PopMax removes and returns the node with the highest gain. From the run
// that is a step of its head.
//
//kappa:hotpath
func (q *GainQueue) PopMax() (int32, int64) {
	if i := q.best(); i >= 0 {
		it := q.entry(q.run[i])
		q.pos[it.node] = -1
		q.live--
		q.head++
		return it.node, it.gain
	}
	v, g := q.heap[0].node, q.heap[0].gain
	q.remove(0)
	return v, g
}

// Update changes the gain of queued node v. A run entry whose gain changes
// moves to the heap, keeping its tiebreak.
//
//kappa:invariant absent-node update is a refinement-kernel bug, not an input error
func (q *GainQueue) Update(v int32, gain int64) {
	p := q.pos[v]
	if p < -1 {
		it := q.staged[-2-p]
		if gain != it.gain {
			q.pos[v] = -1
			q.live--
			q.Push(v, gain, it.tiebreak)
		}
		return
	}
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
	if q.pos[v] == -1 || delta == 0 {
		return
	}
	q.Update(v, q.Gain(v)+delta)
}

// Remove deletes node v from the queue if present.
func (q *GainQueue) Remove(v int32) {
	switch p := q.pos[v]; {
	case p >= 0:
		q.remove(int(p))
	case p < -1:
		q.pos[v] = -1
		q.live--
	}
}

// Reset re-initializes the queue for node ids in [0, n), reusing the
// existing storage when it is large enough — the allocation-free equivalent
// of NewGainQueue(n) used by the refinement workspaces, which run one FM
// search per block pair per level per global iteration on the same queue
// pair.
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
	q.staged, q.run = q.staged[:0], q.run[:0]
	q.head, q.next, q.live, q.depth, q.sealed = 0, 0, 0, 0, false
	q.minGain, q.maxGain = math.MaxInt64, math.MinInt64
}

// entry decodes a run key.
func (q *GainQueue) entry(k uint64) item {
	return item{
		gain:     int64(uint64(q.maxGain) - k>>(32+q.nodeBits)),
		node:     int32(k & (1<<q.nodeBits - 1)),
		tiebreak: ^uint32(k >> q.nodeBits),
	}
}

// best returns the run index of the queue's maximum, or -1 when it is the
// heap's root. On its way it steps the run's head over stale keys — a node
// leaves the run for good, so its key is stale once pos no longer points
// into staged — and orders the run as far as it gets. It panics on an empty
// queue.
//
//kappa:hotpath
//kappa:invariant callers check Empty first; an empty Max is a kernel bug
func (q *GainQueue) best() int {
	for q.live > 0 {
		for ; q.head < q.next; q.head++ {
			if k := q.run[q.head]; q.pos[k&(1<<q.nodeBits-1)] < -1 {
				if len(q.heap) > 0 && less(q.heap[0], q.entry(k)) {
					return -1
				}
				return q.head
			}
		}
		q.order()
	}
	if len(q.heap) == 0 {
		panic("pq: Max of empty queue")
	}
	return -1
}

// order orders the next bucket of the innermost split: it sorts the bucket,
// or, holding more than leafKeys keys, splits it by its next key bits and
// goes on with the first of those buckets. Stale keys go along; the head
// steps over them.
//
//kappa:hotpath
func (q *GainQueue) order() {
	for {
		f := q.frames[q.depth-1]
		if q.next == f.end {
			q.depth--
			continue
		}
		lo, mask := q.next, uint64(1)<<f.bits-1
		d := q.run[lo] >> f.shift & mask
		hi := lo + 1
		for hi < f.end && q.run[hi]>>f.shift&mask == d {
			hi++
		}
		if hi-lo <= leafKeys || f.shift == 0 {
			slices.Sort(q.run[lo:hi])
			q.head, q.next = lo, hi
			return
		}
		q.split(lo, hi, f.shift)
	}
}

// split buckets run[lo:hi], whose keys agree above bit shift, by their next
// bits — an in-place counting sort (American flag sort) into about one
// bucket per four keys — and opens the frame that orders the buckets.
//
//kappa:hotpath
func (q *GainQueue) split(lo, hi int, shift uint8) {
	nb := uint8(min(bits.Len(uint(hi-lo)/4), maxSplitBits, int(shift)))
	shift -= nb
	n := 1 << nb
	end, next := q.count[:n], q.count[n:2*n]
	clear(end)
	keys, mask := q.run[lo:hi], uint64(n-1)
	for _, k := range keys {
		end[k>>shift&mask]++
	}
	var sum int32
	for b, c := range end {
		next[b] = sum
		sum += c
		end[b] = sum
	}
	for b := range end {
		for i := next[b]; i < end[b]; i = next[b] {
			k := keys[i]
			for d := k >> shift & mask; d != uint64(b); d = k >> shift & mask {
				k, keys[next[d]] = keys[next[d]], k
				next[d]++
			}
			keys[i] = k
			next[b]++
		}
	}
	q.frames[q.depth] = frame{end: hi, shift: shift, bits: nb}
	q.depth++
	q.next = lo
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
