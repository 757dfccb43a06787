package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one interval the benchmark observed from outside the program:
// around an op, or between the arrivals of two trace events. Times are
// seconds since the recorder was created. Parent is the id of the span that
// caused it (-1 for an op's root span); spans of one op share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps spans in memory until the run ends. Safe for concurrent
// use: svc_mix has two clients recording at once.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
	return id
}

// begin opens a span whose end is not yet known; finish closes it.
func (r *recorder) begin(parent, op int, name string, start time.Time) int {
	return r.add(parent, op, name, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end.Sub(r.t0).Seconds()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (parallel PEs) and may stick out of the parent; the union is taken and
// clipped to the parent, so self time is never negative.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := 0.0, s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// budgetRow is one line of the time-budget table: the self time all spans of
// one name contributed, summed over ops.
type budgetRow struct {
	Name  string  `json:"name"`
	Self  float64 `json:"self_s"`
	Share float64 `json:"share"` // of the summed root-span time
	Count int     `json:"count"`
}

// budget folds a trace into the time-budget table, largest share first.
// Shares sum to 1 because every moment of a root span is self time of exactly
// one span under it — provided siblings do not overlap; where they do
// (parallel PEs), the overlap is counted once per sibling and the shares sum
// to more than 1, which is the parallelism the table then shows.
func budget(spans []span) []budgetRow {
	self := selfTimes(spans)
	rows := make(map[string]*budgetRow)
	total := 0.0
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
		r := rows[s.Name]
		if r == nil {
			r = &budgetRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Self += self[i]
		r.Count++
	}
	out := make([]budgetRow, 0, len(rows))
	for _, r := range rows {
		r.Share = ratio(r.Self, total)
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// spanSum returns the summed duration of the spans called name — the time
// the layer was busy, regardless of what ran under it.
func spanSum(spans []span, name string) float64 {
	sum := 0.0
	for _, s := range spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

func printBudget(w io.Writer, workload string, rows []budgetRow) {
	fmt.Fprintf(w, "time budget  %s (self time per span name, summed over traced ops)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9.4f s  %5.1f %%  n=%d\n", r.Name, r.Self, 100*r.Share, r.Count)
	}
}
