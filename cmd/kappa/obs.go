package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/remote"
)

// progressOption is the shared -progress observer: every trace event of the
// run, one line per event, to stderr.
func progressOption() core.Option {
	return core.WithObserver(core.ObserverFunc(func(ev core.TraceEvent) {
		fmt.Fprintln(os.Stderr, "kappa:", ev)
	}))
}

// obsFlags are the observability flags shared by `kappa` and `kappa serve`.
type obsFlags struct {
	metrics     string
	metricsHold time.Duration
	report      string
	reportZero  bool
}

// register installs the flags on fs (flag.CommandLine for the root command).
func (f *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.metrics, "metrics", "",
		"serve Prometheus metrics, a JSON snapshot, and pprof on this address (e.g. :9090; /metrics, /metrics.json, /debug/pprof/)")
	fs.DurationVar(&f.metricsHold, "metrics-hold", 0,
		"keep the -metrics endpoint up this long after the run finishes (for scraping a one-shot run)")
	fs.StringVar(&f.report, "report", "",
		"write a JSON run report (config, levels, init cut, refinement gains, transport and arena totals) to this file ('-' for stdout)")
	fs.BoolVar(&f.reportZero, "report-zero", false,
		"zero the report's scheduling-dependent fields (wall-clock times, heartbeat counts, arena reuse split) so reports of identical runs compare byte-equal")
}

// summaryWriter is where the human-readable result summary goes: stderr when
// the report streams to stdout (-report -), so the JSON document on stdout
// stays parseable on its own.
func (f *obsFlags) summaryWriter() io.Writer {
	if f.report == "-" {
		return os.Stderr
	}
	return os.Stdout
}

// runObs is the live observability state of one run: the recorder, and the
// registry behind the HTTP endpoint when -metrics is set.
type runObs struct {
	flags    *obsFlags
	rec      *obs.Recorder
	registry *obs.Registry
	server   interface{ Close() error }
}

// setup wires the requested observability into pipeline options: the run's
// recorder on a fresh arena, and with -metrics a registry with the transport
// and arena bound, served over HTTP. It returns nil when neither -metrics nor
// -report was given — the run stays entirely uninstrumented.
func (f *obsFlags) setup(g *graph.Graph, cfg core.Config) (*runObs, []core.Option, error) {
	if f.metrics == "" && f.report == "" {
		return nil, nil, nil
	}
	o := &runObs{flags: f}
	arena := mem.NewArena()
	if f.metrics != "" {
		o.registry = obs.NewRegistry()
	}
	o.rec = obs.NewRecorder(g, cfg, arena, o.registry)
	if o.registry != nil {
		obs.BindTransport(o.registry, o.rec.Stats)
		obs.BindArena(o.registry, arena)
		srv, addr, err := obs.Serve(f.metrics, o.registry)
		if err != nil {
			return nil, nil, err
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "kappa: metrics on http://%s/metrics (JSON at /metrics.json, pprof at /debug/pprof/)\n", addr)
	}
	return o, o.rec.Options(), nil
}

// bindRemote hooks the coordinator's fault-tolerance counters into the
// metrics registry and the report's faults section. A nil receiver is a
// no-op — `kappa serve` calls it unconditionally.
func (o *runObs) bindRemote(c *remote.Counters) {
	if o == nil {
		return
	}
	o.rec.Faults = c
	if o.registry != nil {
		obs.BindRemote(o.registry, c)
	}
}

// transportStats returns the stats sink to meter transports into, nil when
// observability is off (nil receiver included).
func (o *runObs) transportStats() *dist.TransportStats {
	if o == nil {
		return nil
	}
	return o.rec.Stats
}

// finish completes the run's observability: the recorder's result gauges,
// the report file, and the post-run hold of the metrics endpoint. A nil
// receiver is a no-op, so callers invoke it unconditionally.
func (o *runObs) finish(res core.Result) error {
	if o == nil {
		return nil
	}
	rep := o.rec.Finish(res)
	if o.flags.report != "" {
		if o.flags.reportZero {
			rep.ZeroTimes()
		}
		out := os.Stdout
		if o.flags.report != "-" {
			f, err := os.Create(o.flags.report)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if _, err := rep.WriteTo(out); err != nil {
			return err
		}
		if o.flags.report != "-" {
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "kappa: report written to %s\n", o.flags.report)
		}
	}
	if o.server != nil {
		if o.flags.metricsHold > 0 {
			fmt.Fprintf(os.Stderr, "kappa: holding metrics endpoint for %v\n", o.flags.metricsHold)
			time.Sleep(o.flags.metricsHold)
		}
		o.server.Close()
	}
	return nil
}
