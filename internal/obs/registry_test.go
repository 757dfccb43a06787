package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
	// Re-registration with the same signature returns the same metric.
	if r.Counter("c_total", "a counter").Value() != 3.5 {
		t.Fatal("re-registration must return the existing counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "a histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP h a histogram
# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="10"} 3
h_bucket{le="100"} 4
h_bucket{le="+Inf"} 5
h_sum 556.5
h_count 5
`
	if sb.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestVecLabelsAndFunc(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "pe")
	v.With("1").Add(3)
	v.With("0").Inc()
	backing := 41.0
	v.Func(func() float64 { return backing }, "2")
	backing = 42

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP reqs_total requests
# TYPE reqs_total counter
reqs_total{pe="0"} 1
reqs_total{pe="1"} 3
reqs_total{pe="2"} 42
`
	if sb.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSignatureMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	for name, fn := range map[string]func(){
		"type":   func() { r.Gauge("m", "") },
		"labels": func() { r.CounterVec("m", "", "pe") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDuplicateFuncPanics(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("g", "", "pe")
	v.Func(func() float64 { return 0 }, "0")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Func binding must panic")
		}
	}()
	v.Func(func() float64 { return 0 }, "0")
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a").Add(2)
	h := r.Histogram("lat", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.writeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(snap.Metrics))
	}
	if snap.Metrics[0].Name != "a_total" || *snap.Metrics[0].Samples[0].Value != 2 {
		t.Fatalf("counter sample wrong: %+v", snap.Metrics[0])
	}
	hv := snap.Metrics[1].Samples[0].Histogram
	if hv == nil || hv.Count != 2 || hv.Sum != 5.5 {
		t.Fatalf("histogram sample wrong: %+v", hv)
	}
	// JSON counts are per-bucket, not cumulative; last is the overflow.
	if hv.Counts[0] != 1 || hv.Counts[1] != 0 || hv.Counts[2] != 1 {
		t.Fatalf("histogram counts wrong: %v", hv.Counts)
	}
}

func TestScrapeDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Registration order differs from name order on purpose.
		r.Gauge("z", "").Set(1)
		r.CounterVec("mid_total", "", "pe").With("3").Inc()
		r.CounterVec("mid_total", "", "pe").With("1").Inc()
		r.Histogram("a", "", TimeBuckets).Observe(0.02)
		return r
	}
	var out [2]string
	for i := range out {
		var sb strings.Builder
		if err := build().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out[i] = sb.String()
	}
	if out[0] != out[1] {
		t.Fatal("scrapes of identically-built registries differ")
	}
	if !strings.Contains(out[0], `mid_total{pe="1"} 1`) {
		t.Fatalf("missing labeled sample:\n%s", out[0])
	}
}

// TestConcurrentScrape hammers stores, observations, and both encoders from
// many goroutines; under -race this is the registry's data-race check.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10})
	v := r.CounterVec("v_total", "", "pe")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pe := []string{"0", "1", "2", "3"}[w]
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 20))
				v.With(pe).Inc()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if err := r.writeJSON(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2000 {
		t.Fatalf("counter = %v, want 2000", got)
	}
	if h.Count() != 2000 {
		t.Fatalf("histogram count = %d, want 2000", h.Count())
	}
}
