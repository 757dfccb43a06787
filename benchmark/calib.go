package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The reference box is a small shared VM that runs a quarter to a third
// slower for tens of minutes at a time: two sets of ten wall-clock runs,
// measured one after the other, had medians 26–30 % apart on every workload
// while each set spread by 2–7 % (README, "Measured spread"). The driver
// rejects a benchmark whose second set is worse than its first by more than
// a bound of at most 25 %, so wall-clock alone cannot be gated here.
//
// The benchmark therefore measures the machine as well: a fixed kernel, run
// only while no op and no set-up is in flight — the callers are parked, so
// it competes with nothing of the program's and the benchmark never has more
// than GOMAXPROCS goroutines running — and timed quantities are reported in
// reference seconds: wall-clock × the machine's speed around the
// measurement, where speed = a fixed reference time for the kernel ÷ the
// kernel's time just then. The kernel is the benchmark's and never changes
// with the program, so a change in the program's cost moves the reported
// time in proportion. Wall-clock times and speeds are kept in the result
// file, and bench.speed_ratio says how far apart the two were.

// calSize makes one kernel run about 2 ms: long enough for the clock, short
// against the ops between two calibrations (50 ms and up).
const calSize = 1 << 15

// calRef is what one kernel run takes on the reference box (2 vCPUs of a
// 2.1 GHz Xeon) when nothing disturbs it. It only fixes the scale of the
// reported seconds; comparisons between runs do not depend on it.
const calRef = 0.0018

// calTries is how many times in a row speed runs the kernel. The machine's
// speed holds for seconds and longer, while what disturbs a single try — the
// garbage collector finishing a cycle, goroutines of the op just ended
// winding down — passes in milliseconds, so the fastest try is the one that
// saw only the machine.
const calTries = 5

// calibrator is the benchmark's one calibration kernel: on every processor
// at once, fill a buffer with a fixed pseudo-random sequence and sort it —
// compares, branches and cache traffic in roughly the mix of the
// partitioner's own loops, and, like the partitioner, only as fast as the
// slowest processor lets it be.
type calibrator struct{ bufs [][]uint32 }

func newCalibrator() *calibrator {
	c := &calibrator{bufs: make([][]uint32, runtime.GOMAXPROCS(0))}
	for i := range c.bufs {
		c.bufs[i] = make([]uint32, calSize)
	}
	return c
}

// speed measures the machine now: 1 on an undisturbed reference box, lower
// when it is slowed. The caller makes sure nothing else is running.
func (c *calibrator) speed() float64 {
	best := c.once()
	for try := 1; try < calTries; try++ {
		best = min(best, c.once())
	}
	return calRef / best
}

func (c *calibrator) once() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, buf := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := uint64(88172645463325252)
			for i := range buf {
				s = s*6364136223846793005 + 1442695040888963407
				buf[i] = uint32(s >> 33)
			}
			slices.Sort(buf)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
