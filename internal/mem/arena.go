// Package mem provides the scratch arena that makes the multilevel kernels
// allocation-free across contraction levels.
//
// The paper's §5.2 chooses the static adjacency-array layout precisely so the
// hot kernels run over flat, pre-sized buffers. The multilevel scheme then
// repeats the same kernels at every one of the O(log n) levels of the
// V-cycle, each needing temporary arrays no larger than those of the finest
// graph. An Arena owns those temporaries: a stage borrows a slice sized to
// its current level, uses it, and returns it, so the next level — and the
// next Run on the same Arena — reuses the same backing memory instead of
// re-allocating and re-triggering the garbage collector.
//
// Arenas are safe for concurrent use: the parallel contraction workers and
// the concurrent pairwise refinements of one run all borrow from the shared
// arena of that run. A nil *Arena is valid everywhere and falls back to
// plain allocation, so every scratch-aware function accepts "no reuse" with
// zero branches at the call sites.
//
// The package also holds the one sort the coarsening kernels use on that
// scratch (radix.go): a linear, stable radix sort over 8-byte keyed records,
// shared by matching's edge order and SHEM scan order.
package mem

import "sync"

// maxFree bounds the number of idle slices kept per element type so that a
// burst of concurrent borrowers cannot grow an arena without bound.
const maxFree = 64

// Arena is a reusable pool of scratch slices, one free list per element
// type. Borrowed slices have exactly the requested length and UNDEFINED
// contents — callers must initialize every element they read (the kernels
// all do, either by stamping or by explicit fill loops). Returning a slice
// that is still referenced elsewhere is the caller's bug, exactly as with
// any other manual reuse scheme.
//
// The zero value is ready to use; so is nil (every method on a nil arena
// degenerates to make / no-op).
type Arena struct {
	mu  sync.Mutex
	i32 [][]int32
	i64 [][]int64
	u32 [][]uint32
	f64 [][]float64
	bl  [][]bool
	by  [][]byte
	u64 [][]uint64

	// Counters behind Stats; all guarded by mu.
	gets       int64 // borrows served
	hits       int64 // borrows served from a free list
	grews      int64 // borrows that had to allocate
	allocBytes int64 // bytes of fresh backing arrays ever made
	liveBytes  int64 // bytes currently out with borrowers
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// ArenaStats is a point-in-time snapshot of an arena's accounting: how many
// borrows it served, how many were reuse (free-list hits) versus fresh
// allocations (misses), and where the bytes are — allocated over the arena's
// lifetime, currently out with borrowers, or idle in the free lists. It is
// the data source of the arena gauges of internal/obs.
type ArenaStats struct {
	Borrows int64 // borrows served
	Reused  int64 // borrows served from a free list (hits)
	Misses  int64 // borrows that had to allocate fresh

	AllocatedBytes int64 // bytes of fresh backing arrays made so far
	LiveBytes      int64 // bytes currently borrowed and not yet returned
	PooledBytes    int64 // bytes sitting idle in the free lists
}

// take removes the best-fitting free slice with capacity >= n, or reports
// failure. Best fit (smallest sufficient capacity) keeps the big finest-level
// buffers for the big requests.
func take[T any](list *[][]T, n int) ([]T, bool) {
	best := -1
	for i, s := range *list {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*list)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := (*list)[best]
	last := len(*list) - 1
	(*list)[best] = (*list)[last]
	(*list)[last] = nil
	*list = (*list)[:last]
	return s[:n], true
}

func put[T any](list *[][]T, s []T) {
	if cap(s) == 0 || len(*list) >= maxFree {
		return
	}
	*list = append(*list, s[:0])
}

// borrow serves one borrow from the free list (or fresh) under a's lock and
// maintains the byte accounting; reused reports a free-list hit (whose
// contents are stale and may need clearing — see Bool).
func borrow[T any](a *Arena, list *[][]T, n int, elemSize int64) (s []T, reused bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gets++
	if s, ok := take(list, n); ok {
		a.hits++
		a.liveBytes += int64(cap(s)) * elemSize
		return s, true
	}
	a.grews++
	a.allocBytes += int64(n) * elemSize
	a.liveBytes += int64(n) * elemSize
	return make([]T, n), false
}

// release returns a borrowed slice to the free list and credits its bytes.
// Adopted slices (Put without a matching borrow) can over-credit; the live
// counter clamps at zero so the gauge never reads negative.
func release[T any](a *Arena, list *[][]T, s []T, elemSize int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.liveBytes -= int64(cap(s)) * elemSize
	if a.liveBytes < 0 {
		a.liveBytes = 0
	}
	put(list, s)
}

// Int32 borrows a scratch []int32 of length n (contents undefined).
func (a *Arena) Int32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	s, _ := borrow(a, &a.i32, n, 4)
	return s
}

// PutInt32 returns a slice borrowed with Int32 (or adopts any other
// no-longer-referenced slice into the pool). nil receivers and nil slices
// are no-ops.
func (a *Arena) PutInt32(s []int32) {
	if a == nil {
		return
	}
	release(a, &a.i32, s, 4)
}

// Int64 borrows a scratch []int64 of length n (contents undefined).
func (a *Arena) Int64(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	s, _ := borrow(a, &a.i64, n, 8)
	return s
}

// PutInt64 returns a slice borrowed with Int64.
func (a *Arena) PutInt64(s []int64) {
	if a == nil {
		return
	}
	release(a, &a.i64, s, 8)
}

// Uint32 borrows a scratch []uint32 of length n (contents undefined).
func (a *Arena) Uint32(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	s, _ := borrow(a, &a.u32, n, 4)
	return s
}

// PutUint32 returns a slice borrowed with Uint32.
func (a *Arena) PutUint32(s []uint32) {
	if a == nil {
		return
	}
	release(a, &a.u32, s, 4)
}

// Float64 borrows a scratch []float64 of length n (contents undefined).
func (a *Arena) Float64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	s, _ := borrow(a, &a.f64, n, 8)
	return s
}

// PutFloat64 returns a slice borrowed with Float64.
func (a *Arena) PutFloat64(s []float64) {
	if a == nil {
		return
	}
	release(a, &a.f64, s, 8)
}

// Bool borrows a scratch []bool of length n, ZEROED (membership sets are the
// one scratch shape whose users universally rely on a false default).
func (a *Arena) Bool(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	s, reused := borrow(a, &a.bl, n, 1)
	if reused {
		clear(s)
	}
	return s
}

// PutBool returns a slice borrowed with Bool. The slice need not be cleared
// first; Bool clears on borrow.
func (a *Arena) PutBool(s []bool) {
	if a == nil {
		return
	}
	release(a, &a.bl, s, 1)
}

// Bytes borrows a scratch []byte of length n (contents undefined).
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	s, _ := borrow(a, &a.by, n, 1)
	return s
}

// PutBytes returns a slice borrowed with Bytes.
func (a *Arena) PutBytes(s []byte) {
	if a == nil {
		return
	}
	release(a, &a.by, s, 1)
}

// Uint64 borrows a scratch []uint64 of length n (contents undefined).
func (a *Arena) Uint64(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	s, _ := borrow(a, &a.u64, n, 8)
	return s
}

// PutUint64 returns a slice borrowed with Uint64.
func (a *Arena) PutUint64(s []uint64) {
	if a == nil {
		return
	}
	release(a, &a.u64, s, 8)
}

// pooled sums the capacities of one free list in bytes.
func pooled[T any](list [][]T, elemSize int64) int64 {
	var b int64
	for _, s := range list {
		b += int64(cap(s)) * elemSize
	}
	return b
}

// Stats reports the arena's accounting: borrows served and the reuse/miss
// split, plus the byte-level view (allocated over the arena's lifetime,
// currently borrowed, idle in the pools). A nil arena reports zeros.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{
		Borrows:        a.gets,
		Reused:         a.hits,
		Misses:         a.grews,
		AllocatedBytes: a.allocBytes,
		LiveBytes:      a.liveBytes,
		PooledBytes: pooled(a.i32, 4) + pooled(a.i64, 8) + pooled(a.u32, 4) +
			pooled(a.f64, 8) + pooled(a.bl, 1) + pooled(a.by, 1) + pooled(a.u64, 8),
	}
}
