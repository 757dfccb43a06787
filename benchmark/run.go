package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupReps is how often a run sets its workload up: set-up time is gated
// like any other metric, and one sample of it is too noisy to gate.
const setupReps = 5

// opTimeout bounds a single op; the driver gives a whole run 180 s.
const opTimeout = 60 * time.Second

type runConfig struct {
	workload workload
	sc       scale
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// opRecord is one timed op as kept in the result file.
type opRecord struct {
	Index   int     `json:"index"`
	Seconds float64 `json:"seconds"`     // wall-clock, call → result in hand
	Speed   float64 `json:"speed"`       // machine speed around the op, see calib.go
	Ref     float64 `json:"ref_seconds"` // Seconds × Speed
	RSSMB   float64 `json:"rss_mb"`      // resident set size when the op returned
	Traced  bool    `json:"traced,omitempty"`
	Edges   int     `json:"edges"` // undirected edges of the op's input graph
	Cut     int64   `json:"cut"`
	Hash    string  `json:"hash,omitempty"`
	Error   string  `json:"error,omitempty"`

	tr *opTrace
}

// check runs the oracle over what the op handed back and keeps the verdict
// — cut, partition hash or error — so that the partition itself can be
// dropped at once: what a run holds on to must not grow with the number of
// ops it had time for.
func (r *opRecord) check(out output, err error) {
	if err == nil {
		err = verify(&out)
	}
	if err != nil {
		r.Error = err.Error()
		return
	}
	r.Edges, r.Cut, r.Hash = out.g.NumEdges(), out.cut, partitionHash(out.blocks)
}

// runResult is everything one run of one workload measured. The last line
// of standard output carries the contract's four keys; this is the full
// record, written beside the trace.
type runResult struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	SetupSeconds  []float64  `json:"setup_ref_seconds"`
	OpQuartiles   [3]float64 `json:"op_quartiles_ref_s"`
	WallQuartiles [3]float64 `json:"op_quartiles_wall_s"`
	// Speed is the median over the timed ops of the machine's speed around
	// them: 1 on an undisturbed reference box, lower when it was slowed.
	Speed       float64     `json:"speed"`
	WallSeconds float64     `json:"wall_seconds"` // the timed section: ops and their verification, calibration left out
	CPUSeconds  float64     `json:"cpu_seconds"`  // process CPU time over the same
	Failures    []string    `json:"failures,omitempty"`
	Notes       []string    `json:"notes,omitempty"` // the bases of the ratios a traced run reports
	Ops         []opRecord  `json:"ops"`
	Budget      []budgetRow `json:"budget,omitempty"`
}

// run measures one workload once: set-up (several times, the last kept),
// the timed section with each op verified as it returns, and — on a traced
// run — the per-layer metrics. It reads and writes only under rc.outDir.
func run(rc runConfig) (*runResult, error) {
	w := rc.workload
	tmp := filepath.Join(rc.outDir, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(tmp)

	res := &runResult{Workload: w.name, Trace: rc.trace, Seed: rc.seed, Env: currentEnv()}
	cal := newCalibrator()
	inst, err := setUp(rc, cal, tmp, res)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	sec := timedSection(rc, cal, inst)
	res.WallSeconds, res.CPUSeconds = sec.wall, sec.cpu
	judge(res, sec.ops, w.cycle)

	var times, wall, speeds, timesTraced, timesPlain, rss []float64
	for _, r := range res.Ops {
		times = append(times, r.Ref)
		wall = append(wall, r.Seconds)
		speeds = append(speeds, r.Speed)
		rss = append(rss, r.RSSMB)
		if r.Traced {
			timesTraced = append(timesTraced, r.Ref)
		} else {
			timesPlain = append(timesPlain, r.Ref)
		}
	}
	res.OpQuartiles = [3]float64{quantile(times, 0.25), median(times), quantile(times, 0.75)}
	res.WallQuartiles = [3]float64{quantile(wall, 0.25), median(wall), quantile(wall, 0.75)}
	res.Speed = median(speeds)

	m := metricSet{}
	decls := endToEnd
	if !rc.trace {
		m["setup_s"] = median(res.SetupSeconds)
		m["op_p50_s"] = median(times)
		m["edges_per_s"] = median(cycleThroughputs(res.Ops, w))
		m["cut_sum"] = float64(cutSum(res.Ops, w.cycle))
		m["rss_p90_mb"] = quantile(rss, 0.9)
	} else {
		decls = perLayer
		n := float64(len(res.Ops))
		m["bench.speed_ratio"] = res.Speed
		m["mem.peak_rss_mb"] = usage().peakRSSMB
		m["core.cpu_s_per_op"] = sec.cpu / n
		m["core.parallelism"] = sec.cpu / sec.wall
		m["core.trace_overhead_ratio"] = ratio(median(timesTraced), median(timesPlain))
		m["mem.allocs_per_op"] = float64(sec.mem1.Mallocs-sec.mem0.Mallocs) / n
		m["mem.alloc_mb_per_op"] = float64(sec.mem1.TotalAlloc-sec.mem0.TotalAlloc) / n / 1e6
		m["mem.gc_cycles_per_op"] = float64(sec.mem1.NumGC-sec.mem0.NumGC) / n
		m["mem.gc_pause_ms_per_op"] = float64(sec.mem1.PauseTotalNs-sec.mem0.PauseTotalNs) / n / 1e6
		spans := sec.rec.snapshot()
		res.Budget = budget(spans)
		tracedMetrics(m, res.Ops, spans, sec.wall, w.cycle)
		res.Notes, err = probe(m, inst, rc, res.Ops, filepath.Join(tmp, "probe"))
		switch {
		case errors.Is(err, errPin):
			res.Correct = false
			res.Failures = append(res.Failures, err.Error())
		case err != nil:
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := writeJSON(filepath.Join(rc.outDir, "trace-"+w.name+".json"), spans); err != nil {
			return nil, err
		}
	}
	if res.Metrics, err = m.report(decls); err != nil {
		return nil, err
	}
	trace := 0
	if rc.trace {
		trace = 1
	}
	return res, writeJSON(filepath.Join(rc.outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, trace)), res)
}

// cycleThroughputs returns, for each pass through the fixed op set, the
// undirected edges of its verified ops per second. Every caller is in an op
// whenever the benchmark is not verifying its last one or calibrating, so
// the callers together spend w.clients seconds of op time per second: this
// is the throughput with the benchmark's own work between ops taken out.
// The run reports the median of its cycles, which a slow second or two
// inside one of them does not move.
func cycleThroughputs(ops []opRecord, w workload) []float64 {
	var out []float64
	for c := 0; c+w.cycle <= len(ops); c += w.cycle {
		edges, busy := 0.0, 0.0
		for _, r := range ops[c : c+w.cycle] {
			busy += r.Ref
			if r.Error == "" {
				edges += float64(r.Edges)
			}
		}
		out = append(out, float64(w.clients)*edges/busy)
	}
	return out
}

// setUp sets the workload up setupReps times — generation, file and store
// writes, listeners, and one warm-up op that fills caches and finishes lazy
// initialisation — records each repetition's reference seconds in res, and
// returns the last instance.
func setUp(rc runConfig, cal *calibrator, tmp string, res *runResult) (instance, error) {
	w := rc.workload
	var inst instance
	speed := cal.speed()
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			runtime.GC() // the previous repetition's graph must not count towards this one's memory
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(rc.sc, rc.seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err = inst.op(ctx, 0, opSeed(rc.seed, 0, w.cycle), nil)
		cancel()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		seconds := time.Since(t0).Seconds()
		after := cal.speed()
		res.SetupSeconds = append(res.SetupSeconds, seconds*(speed+after)/2)
		speed = after
	}
	return inst, nil
}

// section is what the timed section leaves behind.
type section struct {
	ops        []opRecord // in completion order
	wall, cpu  float64    // seconds
	mem0, mem1 runtime.MemStats
	rec        *recorder
}

// timedSection runs the closed loop: the workload's callers, each asking
// for the next op as soon as its previous one returned and was verified,
// through the fixed op set again and again until, at the end of a cycle, the
// time is up. A run is therefore a whole number of cycles and every op of
// the set weighs the same in the run's statistics — the ops of a set differ
// in cost by a factor of two and more, so a median over a cut-off cycle
// would move with where the cut fell.
//
// Ops run in groups of w.calEvery. Between two groups nothing is in flight,
// and there the machine's speed is measured; an op's speed is the mean of
// the measurements before and after its group. Each caller verifies its op
// after the op's clock has stopped and before it asks for the next, so
// verification is in no op's time and a caller never has more than one
// thing running. Op errors are recorded, not returned: a failed op is a
// result.
func timedSection(rc runConfig, cal *calibrator, inst instance) *section {
	w := rc.workload
	sec := &section{rec: newRecorder()}
	runtime.ReadMemStats(&sec.mem0)
	start := time.Now()
	speed := cal.speed()
	for first := 0; first == 0 || first%w.cycle != 0 || time.Since(start).Seconds() < rc.seconds; first += w.calEvery {
		// The section's wall-clock and CPU time are the groups' alone: the
		// kernel keeps every processor busy and would pass for parallelism.
		t0, cpu0 := time.Now(), usage().cpuSeconds
		group := runGroup(rc, inst, sec.rec, first, first+w.calEvery)
		sec.wall += time.Since(t0).Seconds()
		sec.cpu += usage().cpuSeconds - cpu0
		after := cal.speed()
		for i := range group {
			group[i].Speed = (speed + after) / 2
			group[i].Ref = group[i].Seconds * group[i].Speed
		}
		sec.ops = append(sec.ops, group...)
		speed = after
	}
	runtime.ReadMemStats(&sec.mem1)
	return sec
}

// runGroup has the workload's callers run ops first … last-1 and returns
// them, checked, in completion order, once every caller is idle again.
func runGroup(rc runConfig, inst instance, rec *recorder, first, last int) []opRecord {
	w := rc.workload
	var mu sync.Mutex // guards next and ops
	var ops []opRecord
	next := first
	var wg sync.WaitGroup
	for c := 0; c < min(w.clients, last-first); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= last {
					return
				}
				r := opRecord{Index: i, Traced: rc.trace && tracedOp(i, w.cycle)}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				t0 := time.Now()
				if r.Traced {
					r.tr = newOpTrace(rec, i, t0)
				}
				out, err := inst.op(ctx, i, opSeed(rc.seed, i, w.cycle), r.tr)
				t1 := time.Now()
				cancel()
				r.Seconds = t1.Sub(t0).Seconds()
				r.RSSMB = residentMB()
				if r.tr != nil {
					r.tr.end(t1)
				}
				r.check(out, err)
				mu.Lock()
				ops = append(ops, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops
}

// tracedOp says which ops of a traced run carry the tracer. Half do, so the
// run compares traced with untraced ops under one process's conditions, and
// the halves swap every cycle, so each seed is measured both ways.
func tracedOp(i, cycle int) bool { return (i+i/cycle)%2 == 0 }

// judge puts the checked ops in index order (with two callers they finish
// out of order) and fills in the run's verdict. Beyond its own check an op
// fails when its partition differs from the one the same seed gave earlier
// in the run — the pipeline is deterministic, so that is a bug.
func judge(res *runResult, ops []opRecord, cycle int) {
	byIndex := make([]opRecord, len(ops))
	for _, r := range ops {
		byIndex[r.Index] = r
	}
	for i := range byIndex {
		r := &byIndex[i]
		if first := byIndex[i%cycle]; r.Error == "" && first.Error == "" && first.Hash != r.Hash {
			r.Error = fmt.Sprintf("partition differs from op %d's, which ran the same seed", i%cycle)
		}
		if r.Error != "" {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("op %d: %s", i, r.Error))
		}
	}
	res.Ops = byIndex
	res.Attempted = len(byIndex)
	res.Correct = res.Failed == 0
}

// cutSum is the summed cut of the fixed op set — the first cycle ops.
func cutSum(ops []opRecord, cycle int) int64 {
	var sum int64
	for _, r := range ops[:cycle] {
		sum += r.Cut
	}
	return sum
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
