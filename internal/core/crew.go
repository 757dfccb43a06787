package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crewSpin is how long a crew member with nothing to claim keeps yielding
// the processor before it parks. It is sized from two measurements on the
// reference box (EXPERIMENTS.md "PR 22"): a goroutine started or woken on the
// other processor runs 82–100 µs later (sooner only if its waker blocks
// first), which is most of a 145 µs round, so a helper has to be awake still
// when the next round is published; and nine in ten of a helper's waits — the
// tail of a round, the snapshot for the next one, a round of a single pair —
// end within 100 µs. Waiting longer than a wake-up costs buys nothing; the
// longer waits (colouring between global iterations, projection between
// levels) and a process whose processors are all taken end in a park, and
// cost one wake-up each.
const crewSpin = 100 * time.Microsecond

// crew is a run's refinement helpers: goroutines that live from the first
// round with more than one pair until the run returns, so that a round costs
// a store and a few loads to hand out instead of a goroutine start per
// worker. Member 0 is the caller of run, who owns the batch: it alone
// publishes one and waits for its last task. Helpers are members 1, 2, ….
//
// Hand-off. todo is the number of unclaimed tasks of the published batch;
// storing it publishes task and n. Whoever lowers it by one owns that task,
// and the claim holds the batch open — done cannot reach n before the claimer
// has counted its task — so the claimer reads task and n after the claim and
// the caller rewrites them only after done says every claimed task is
// finished. A member that finds todo zero (a helper between batches, the
// caller before the last task is in) yields for crewSpin and then parks at
// its gate.
type crew struct {
	task func(member, i int)
	n    int32
	todo atomic.Int32
	done atomic.Int32

	spin    time.Duration
	stopped atomic.Bool
	helpers gate // waiting for a batch or for stop
	caller  gate // waiting for the batch's last task
	exited  sync.WaitGroup
}

// startCrew starts a crew of the given size, the caller included.
func startCrew(members int, spin time.Duration) *crew {
	c := &crew{spin: spin}
	c.helpers.tokens = make(chan struct{}, members-1)
	c.caller.tokens = make(chan struct{}, 1)
	c.exited.Add(members - 1)
	for m := 1; m < members; m++ {
		go c.help(m)
	}
	return c
}

// stop makes every helper return and waits until it has.
func (c *crew) stop() {
	c.stopped.Store(true)
	c.helpers.release(cap(c.helpers.tokens))
	c.exited.Wait()
}

func (c *crew) help(member int) {
	defer c.exited.Done()
	wanted := func() bool { return c.todo.Load() > 0 || c.stopped.Load() }
	for !c.stopped.Load() {
		c.claim(member)
		c.await(&c.helpers, wanted)
	}
}

// run calls task(member, i) once for every i in [0, n), the caller beside
// the helpers, tasks claimed in order of i, and returns when the last one
// has.
func (c *crew) run(n int, task func(member, i int)) {
	c.task, c.n = task, int32(n)
	c.done.Store(0)
	c.todo.Store(c.n)
	c.helpers.release(n - 1)
	c.claim(0)
	c.await(&c.caller, func() bool { return c.done.Load() == c.n })
}

// claim runs tasks of the published batch until none is unclaimed.
func (c *crew) claim(member int) {
	for {
		left := c.todo.Load()
		if left == 0 {
			return
		}
		if !c.todo.CompareAndSwap(left, left-1) {
			continue
		}
		n := c.n
		c.task(member, int(n-left))
		if c.done.Add(1) == n {
			c.caller.release(1)
		}
	}
}

// await returns once ready holds: it yields the processor for c.spin, then
// parks at g until a release, and starts over.
func (c *crew) await(g *gate, ready func() bool) {
	for {
		for start := time.Now(); time.Since(start) < c.spin; runtime.Gosched() {
			if ready() {
				return
			}
		}
		if g.park(ready) {
			return
		}
	}
}

// gate is where crew members park. A member announces itself in waiting
// before it looks at the state one last time; whoever changes the state
// looks at waiting afterwards. Both are sequentially consistent, so either
// the member sees the change or the changer sees the announcement: a wake-up
// cannot fall between "about to park" and "round published". An announcement
// is answered exactly once, by the member withdrawing it or by a release
// sending a token, so tokens never outlive the wait they were sent for.
type gate struct {
	waiting atomic.Int32
	tokens  chan struct{} // one slot per member that can park here
}

// park blocks until a release answers the caller's announcement, unless
// ready holds once it is made. It reports whether ready held.
func (g *gate) park(ready func() bool) bool {
	g.waiting.Add(1)
	if ready() && g.withdraw() {
		return true
	}
	<-g.tokens
	return false
}

// withdraw takes one announcement back, if one is left.
func (g *gate) withdraw() bool {
	for {
		w := g.waiting.Load()
		if w == 0 {
			return false
		}
		if g.waiting.CompareAndSwap(w, w-1) {
			return true
		}
	}
}

// release wakes up to k parked members.
func (g *gate) release(k int) {
	for ; k > 0 && g.withdraw(); k-- {
		g.tokens <- struct{}{}
	}
}
