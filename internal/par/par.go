// Package par is the one parallel runner of a partitioning run: a crew of
// goroutines, started once per run and stopped before it returns, that
// executes every pass the run splits into independent tasks — node ranges,
// per-block matchings, per-PE extractions, refinement pairs, quotient rows.
// Whatever the pass, no more tasks are in flight than the crew has members,
// and a run's crew has no more members than GOMAXPROCS.
//
// A nil *Crew is valid everywhere: a batch on it runs on min(n, GOMAXPROCS)
// goroutines started for that batch, which the caller waits for. That is the
// runner of a kernel called outside a run, such as a benchmark probe.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Spin is how long a crew member with nothing to claim keeps yielding the
// processor before it parks. It is sized from two measurements on the
// reference box (EXPERIMENTS.md "PR 22"): a goroutine started or woken on the
// other processor runs 82–100 µs later (sooner only if its waker blocks
// first), which is most of a 145 µs refinement round, so a helper has to be
// awake still when the next batch is published; and nine in ten of a helper's
// waits — the tail of a batch, the serial stretch before the next one, a
// batch of a single task — end within 100 µs. Waiting longer than a wake-up
// costs buys nothing; the longer waits (initial partitioning, colouring
// between global iterations) and a process whose processors are all taken end
// in a park, and cost one wake-up each.
const Spin = 100 * time.Microsecond

// Crew is a run's helpers: goroutines that live from Start until Stop, so
// that a batch costs a store and a few loads to hand out instead of a
// goroutine start per task. Member 0 is the caller of Run, who owns the
// batch: it publishes it, claims tasks beside the helpers and waits for the
// last one. Helpers are members 1, 2, ….
//
// Hand-off. todo is the number of unclaimed tasks of the published batch;
// storing it publishes task and n. Whoever lowers it by one owns that task,
// and the claim holds the batch open — done cannot reach n before the claimer
// has counted its task — so the claimer reads task and n after the claim and
// the owner rewrites them only after done says every claimed task is
// finished. A member that finds todo zero (a helper between batches, the
// owner before the last task is in) yields for the spin budget and then parks
// at its gate.
type Crew struct {
	task func(member, i int)
	n    int32
	todo atomic.Int32
	done atomic.Int32
	busy atomic.Bool // a batch is published and not yet finished

	members int
	spin    time.Duration
	labels  atomic.Pointer[context.Context] // see Label
	stopped atomic.Bool
	helpers gate // waiting for a batch or for stop
	owner   gate // waiting for the batch's last task
	exited  sync.WaitGroup
}

// Start starts a crew of the given number of members (at least one), the
// caller of its batches included, whose idle members yield for spin before
// they park. A crew of one member starts no goroutine and runs every batch
// inline. A run sizes its crew at most GOMAXPROCS; a larger one only makes
// its members take turns.
func Start(members int, spin time.Duration) *Crew {
	members = max(1, members)
	c := &Crew{members: members, spin: spin}
	c.helpers.tokens = make(chan struct{}, members-1)
	c.owner.tokens = make(chan struct{}, 1)
	c.exited.Add(members - 1)
	for m := 1; m < members; m++ {
		go c.help(m)
	}
	return c
}

// Members returns how many tasks of a batch can be in flight at once: the
// crew's size, or GOMAXPROCS for a nil crew.
func (c *Crew) Members() int {
	if c == nil {
		return runtime.GOMAXPROCS(0)
	}
	return c.members
}

// Stop makes every helper return and waits until it has. A nil crew has
// none.
func (c *Crew) Stop() {
	if c == nil {
		return
	}
	c.stopped.Store(true)
	c.helpers.release(cap(c.helpers.tokens))
	c.exited.Wait()
}

// Label makes the helpers carry ctx's pprof labels from their next claim on,
// the labels the owner's goroutine runs under: a helper is started once per
// run, before any phase, so it cannot inherit a phase's labels the way a
// goroutine started inside the phase would.
func (c *Crew) Label(ctx context.Context) {
	if c != nil {
		c.labels.Store(&ctx)
	}
}

func (c *Crew) help(member int) {
	defer c.exited.Done()
	wanted := func() bool { return c.todo.Load() > 0 || c.stopped.Load() }
	for !c.stopped.Load() {
		if l := c.labels.Load(); l != nil {
			pprof.SetGoroutineLabels(*l)
		}
		c.claim(member)
		c.await(&c.helpers, wanted)
	}
}

// Run calls task(member, i) once for every i in [0, n), tasks claimed in
// order of i, and returns when the last one has. member names the goroutine
// running the task among those of the batch, below Members(), for scratch
// kept per member: calls with the same member never overlap.
//
// A batch started while another is in flight — from inside one of its tasks,
// such as the halves of a recursive bisection — runs inline on the goroutine
// that started it. The crew cannot name that goroutine, so its tasks get
// member -1 and must not touch per-member scratch.
func (c *Crew) Run(n int, task func(member, i int)) {
	switch {
	case n <= 0:
	case c == nil:
		Spawn(n, task)
	case !c.busy.CompareAndSwap(false, true):
		inline(n, -1, task)
	default:
		c.task, c.n = task, int32(n)
		c.done.Store(0)
		c.todo.Store(c.n)
		c.helpers.release(n - 1)
		c.claim(0)
		c.await(&c.owner, func() bool { return c.done.Load() == c.n })
		c.task = nil // what the batch's closure holds is garbage from here on
		c.busy.Store(false)
	}
}

// inline runs the tasks of a batch one after another as member.
func inline(n, member int, task func(member, i int)) {
	for i := range n {
		task(member, i)
	}
}

// Spawn is Run on a nil crew, for a pass outside any run: min(n, GOMAXPROCS)
// goroutines started for the batch claim its tasks in order of i while the
// caller only waits, since a goroutine queued behind a caller that keeps
// running is taken by an idle processor only about 80 µs later on the
// reference box, which serializes short tasks, while one queued behind a
// caller that blocks is taken within microseconds (EXPERIMENTS.md "PR 30").
func Spawn(n int, task func(member, i int)) {
	claimers := min(n, runtime.GOMAXPROCS(0))
	if claimers == 1 {
		inline(n, 0, task)
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(claimers)
	for m := range claimers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(m, i)
			}
		}()
	}
	wg.Wait()
}

// claim runs tasks of the published batch until none is unclaimed.
func (c *Crew) claim(member int) {
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
			c.owner.release(1)
		}
	}
}

// await returns once ready holds: it yields the processor for the spin
// budget, then parks at g until a release, and starts over.
func (c *Crew) await(g *gate, ready func() bool) {
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
// cannot fall between "about to park" and "batch published". An announcement
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
