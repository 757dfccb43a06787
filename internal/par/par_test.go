package par

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within runs f and fails the test with a dump of every goroutine when f has
// not returned in time: a crew member that missed its wake-up is a goroutine
// parked in gate.park or yielding in Crew.await in that dump, not a flake.
func within(t *testing.T, limit time.Duration, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		var dump strings.Builder
		pprof.Lookup("goroutine").WriteTo(&dump, 2)
		t.Fatalf("still running after %v; goroutines:\n%s", limit, dump.String())
	}
}

// xorshift is a small deterministic stream for batch sizes.
type xorshift uint64

func (x *xorshift) intn(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

// TestCrewHandshake hands a crew thousands of batches of tasks that do
// nothing but yield the processor, so that members spend the test
// publishing, claiming, waiting and being woken, and tasks change hands even
// on one processor: with the spin budget of a run, and with none, where every
// wait parks — the path a loaded machine takes. Every task must run exactly
// once, no batch may return before its last task has, and helpers must have
// taken their share. A lost wake-up hangs, and within turns that into a dump.
func TestCrewHandshake(t *testing.T) {
	for _, spin := range []time.Duration{Spin, 0} {
		for _, members := range []int{2, 3, 8} {
			within(t, time.Minute, func() error {
				c := Start(members, spin)
				defer c.Stop()
				ran := make([]atomic.Int32, 16)
				r := xorshift(members)
				tasks, byHelpers := 0, 0
				for batch := 0; batch < 20000; batch++ {
					n := 2 + r.intn(len(ran)-1)
					byMember := make([]int, members)
					c.Run(n, func(member, i int) {
						runtime.Gosched()
						ran[i].Add(1)
						byMember[member]++ // one writer per member
					})
					total := 0
					for _, m := range byMember {
						total += m
					}
					tasks, byHelpers = tasks+n, byHelpers+total-byMember[0]
					if total != n {
						return fmt.Errorf("spin %v, %d members, batch %d: Run returned after %d of %d tasks", spin, members, batch, total, n)
					}
					for i := range ran {
						want := int32(0)
						if i < n {
							want = 1
						}
						if got := ran[i].Swap(0); got != want {
							return fmt.Errorf("spin %v, %d members, batch %d of %d tasks: task %d ran %d times", spin, members, batch, n, i, got)
						}
					}
				}
				t.Logf("spin %v, %d members: helpers ran %d of %d tasks", spin, members, byHelpers, tasks)
				if byHelpers < tasks/100 {
					return fmt.Errorf("spin %v, %d members: helpers ran %d of %d tasks", spin, members, byHelpers, tasks)
				}
				return nil
			})
		}
	}
}

// TestCrewNearEmptyBatches publishes thousands of batches of one or
// two tasks that return at once — the shape of a coarse level's passes and of
// a colour class of stuck pairs — with serial stretches of varying length
// between them, so that helpers are caught spinning, parking and being woken
// at every point of a batch. Each batch must see every task exactly once.
func TestCrewNearEmptyBatches(t *testing.T) {
	for _, spin := range []time.Duration{Spin, 0} {
		for _, members := range []int{2, 4} {
			within(t, time.Minute, func() error {
				c := Start(members, spin)
				defer c.Stop()
				var ran [2]atomic.Int32
				r := xorshift(7 + members)
				for batch := 0; batch < 20000; batch++ {
					n := 1 + r.intn(2)
					c.Run(n, func(_, i int) { ran[i].Add(1) })
					for i := range ran {
						want := int32(0)
						if i < n {
							want = 1
						}
						if got := ran[i].Swap(0); got != want {
							return fmt.Errorf("spin %v, %d members, batch %d of %d tasks: task %d ran %d times", spin, members, batch, n, i, got)
						}
					}
					for range r.intn(64) {
						runtime.Gosched()
					}
				}
				return nil
			})
		}
	}
}

// TestCrewStopLeavesNoHelper starts and stops crews of several sizes, with
// and without a batch in between, and expects the goroutine count it started
// with: Stop returns once every helper has exited, not gone idle.
func TestCrewStopLeavesNoHelper(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, members := range []int{1, 2, 5} {
		for _, batches := range []int{0, 3} {
			c := Start(members, Spin)
			if got := runtime.NumGoroutine() - before; got > members-1 {
				t.Fatalf("%d members: %d goroutines started, want at most %d", members, got, members-1)
			}
			for range batches {
				c.Run(members+1, func(_, _ int) {})
			}
			c.Stop()
			if after := settled(before); after > before {
				t.Fatalf("%d members, %d batches: %d goroutines before, %d after Stop", members, batches, before, after)
			}
		}
	}
}

// settled returns the goroutine count, giving goroutines that have been
// waited for a moment to finish dying: WaitGroup.Wait returns on a helper's
// Done, an instant before the helper itself is gone.
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNestedBatchRunsInline starts a batch from inside every task of a
// batch, as RCB does for its halves: each nested batch must run all its
// tasks on the goroutine that started it, in order, with member -1, while the
// outer tasks still spread over the crew.
func TestNestedBatchRunsInline(t *testing.T) {
	within(t, time.Minute, func() error {
		c := Start(3, Spin)
		defer c.Stop()
		const outer, inner = 8, 5
		var errs [outer]error
		for round := 0; round < 200; round++ {
			c.Run(outer, func(member, i int) {
				if member < 0 || member >= c.Members() {
					errs[i] = fmt.Errorf("outer task %d ran as member %d", i, member)
					return
				}
				var order []int
				c.Run(inner, func(m, j int) {
					if m != -1 {
						errs[i] = fmt.Errorf("nested task %d of outer task %d ran as member %d", j, i, m)
					}
					order = append(order, j) // unsynchronized: inline or the race detector objects
				})
				if len(order) != inner {
					errs[i] = fmt.Errorf("outer task %d: nested batch returned after %d of %d tasks", i, len(order), inner)
				}
				for j, got := range order {
					if got != j {
						errs[i] = fmt.Errorf("outer task %d: nested tasks ran in order %v", i, order)
					}
				}
			})
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}
		// The crew is free again: a batch after the nested ones is handed out.
		// Each of its two tasks waits until both have started, which only a
		// helper claiming one of them lets happen; a batch run inline would
		// hang here until within gives up.
		var started atomic.Int32
		c.Run(2, func(int, int) {
			started.Add(1)
			for started.Load() < 2 {
				runtime.Gosched()
			}
		})
		return nil
	})
}

// TestSpawnBoundsInFlight runs batches of many tasks on a nil crew and
// expects no more of them in flight at once than GOMAXPROCS, each claimed
// exactly once.
func TestSpawnBoundsInFlight(t *testing.T) {
	var c *Crew
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{1, 2, 16, 100} {
		var inFlight, most atomic.Int32
		ran := make([]atomic.Int32, n)
		c.Run(n, func(member, i int) {
			if member < 0 || member >= procs {
				t.Errorf("task %d ran as member %d of %d", i, member, procs)
			}
			now := inFlight.Add(1)
			for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
			}
			runtime.Gosched()
			ran[i].Add(1)
			inFlight.Add(-1)
		})
		if got := int(most.Load()); got > min(n, procs) {
			t.Fatalf("%d tasks: %d in flight at once on %d processors", n, got, procs)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("%d tasks: task %d ran %d times", n, i, got)
			}
		}
	}
}

// BenchmarkCrewBatch is the hand-off seam: a batch of two near-empty tasks
// published to a crew of two and waited for — the per-pass cost a split pass
// pays on a run's crew instead of a goroutine start per task. It allocates
// nothing per batch; `make bench-compare` holds it to that.
func BenchmarkCrewBatch(b *testing.B) {
	c := Start(2, Spin)
	defer c.Stop()
	var sink [2]int
	task := func(member, i int) { sink[i] += member }
	b.ReportAllocs()
	for b.Loop() {
		c.Run(2, task)
	}
}

// TestCrewChainedBatch runs thousands of chained batches whose tasks refine
// the items of a random schedule the way core's pair batches do: items over
// a few blocks, in order, each free once the earlier items of its two blocks
// have finished; a task takes the lowest free item and returns how many items
// its finishing freed. With the spin budget and without, every task must
// find a free item, every item must run, no batch may return before its last
// item has, and no more items may run at once than the crew has members. A
// release that is lost hangs, and within turns that into a dump. On a nil
// crew the items run one after another, as member 0.
func TestCrewChainedBatch(t *testing.T) {
	for _, spin := range []time.Duration{Spin, 0} {
		for _, members := range []int{1, 2, 3, 8} {
			within(t, time.Minute, func() error {
				c := Start(members, spin)
				defer c.Stop()
				r := xorshift(31 + members)
				for batch := 0; batch < 1000; batch++ {
					if err := chainedBatch(c, &r, members); err != nil {
						return fmt.Errorf("spin %v, %d members, batch %d: %w", spin, members, batch, err)
					}
				}
				return nil
			})
		}
	}
	r := xorshift(5)
	if err := chainedBatch(nil, &r, 1); err != nil {
		t.Fatalf("nil crew: %v", err)
	}
}

// chainedBatch runs one random schedule as a chained batch on c and checks
// it.
func chainedBatch(c *Crew, r *xorshift, members int) error {
	const blocks = 6
	n := 1 + r.intn(16)
	type item struct{ a, b int }
	items := make([]item, n)
	waits := make([]int, n) // earlier items still to finish; -1 once taken
	seen := make([]bool, blocks)
	ready := 0
	for i := range items {
		a := r.intn(blocks)
		b := (a + 1 + r.intn(blocks-1)) % blocks
		items[i] = item{a, b}
		for _, x := range []int{a, b} {
			if seen[x] {
				waits[i]++
			}
			seen[x] = true
		}
		if waits[i] == 0 {
			ready++
		}
	}
	var mu sync.Mutex
	done := make([]bool, n)
	var inFlight, most atomic.Int32
	var bad error
	c.RunChained(n, ready, func(member, _ int) int {
		mu.Lock()
		i := slices.Index(waits, 0)
		if i < 0 || member < 0 || member >= max(members, 1) {
			bad = fmt.Errorf("a task found no free item (member %d)", member)
			mu.Unlock()
			return 0
		}
		waits[i] = -1
		mu.Unlock()
		now := inFlight.Add(1)
		for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
		}
		runtime.Gosched()
		inFlight.Add(-1)
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		freed := 0
		for _, x := range []int{items[i].a, items[i].b} {
			for j := i + 1; j < n; j++ {
				if items[j].a == x || items[j].b == x {
					if waits[j]--; waits[j] == 0 {
						freed++
					}
					break
				}
			}
		}
		return freed
	})
	if bad != nil {
		return bad
	}
	for i, d := range done {
		if !d {
			return fmt.Errorf("RunChained returned before item %d of %d ran", i, n)
		}
	}
	if got := int(most.Load()); got > max(members, 1) {
		return fmt.Errorf("%d items in flight at once", got)
	}
	return nil
}
