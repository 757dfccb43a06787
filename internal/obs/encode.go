package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// WritePrometheus writes every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, children by label values, so the
// output is deterministic for a fixed metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, m := range children {
			var err error
			if f.typ == typeHistogram {
				err = writePromHistogram(w, f, m)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, m.labelVals), formatFloat(m.value()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram writes the _bucket/_sum/_count triplet of one child.
func writePromHistogram(w io.Writer, f *family, m *metric) error {
	cum := int64(0)
	for i, ub := range f.bounds {
		cum += atomic.LoadInt64(&m.counts[i])
		ls := promLabelsExtra(f.labels, m.labelVals, "le", formatFloat(ub))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
			return err
		}
	}
	cum += atomic.LoadInt64(&m.counts[len(f.bounds)])
	ls := promLabelsExtra(f.labels, m.labelVals, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, promLabels(f.labels, m.labelVals), formatFloat(sumOf(m))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(f.labels, m.labelVals), m.count.Load())
	return err
}

func sumOf(m *metric) float64 {
	return math.Float64frombits(m.sumBits.Load())
}

// promLabels renders {k="v",...}; empty label sets render as nothing.
func promLabels(names, values []string) string {
	return promLabelsExtra(names, values, "", "")
}

// promLabelsExtra renders the label set plus one optional extra pair (the
// histogram's le).
func promLabelsExtra(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON form of a registry scrape.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family with all its samples.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Help    string   `json:"help,omitempty"`
	Samples []Sample `json:"samples"`
}

// Sample is one child's current value; Histogram is set only for histograms,
// Value only for counters and gauges.
type Sample struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     *float64          `json:"value,omitempty"`
	Histogram *HistogramValue   `json:"histogram,omitempty"`
}

// HistogramValue is one histogram child: per-bucket (non-cumulative) counts,
// the last entry counting observations above every bound.
type HistogramValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot captures the current value of every metric, ordered like the
// Prometheus output (families by name, samples by label values).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		ms := MetricSnapshot{Name: f.name, Type: f.typ.String(), Help: f.help}
		for _, m := range children {
			s := Sample{}
			if len(f.labels) > 0 {
				s.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					s.Labels[n] = m.labelVals[i]
				}
			}
			if f.typ == typeHistogram {
				hv := &HistogramValue{
					Bounds: f.bounds,
					Counts: make([]int64, len(m.counts)),
					Sum:    sumOf(m),
					Count:  m.count.Load(),
				}
				for i := range m.counts {
					hv.Counts[i] = atomic.LoadInt64(&m.counts[i])
				}
				s.Histogram = hv
			} else {
				v := m.value()
				s.Value = &v
			}
			ms.Samples = append(ms.Samples, s)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// writeJSON writes the snapshot as indented JSON (deterministic: families and
// samples are ordered, and encoding/json sorts the label maps).
func (r *Registry) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
