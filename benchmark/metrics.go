package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDecl names a metric and its unit. BENCHMARK.json carries the same
// lists; the tests hold the two together.
type metricDecl struct {
	name, unit string
	// An end-to-end metric also says which direction is better and by what
	// share of the baseline it may get worse before compare calls it a
	// regression.
	better string
	bound  float64
}

// endToEnd is measured on the untraced run of every workload.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "edges_per_s", unit: "edges/s", better: "higher", bound: 0.25},
	{name: "cut_sum", unit: "weight", better: "lower", bound: 0.20},
	{name: "rss_p90_mb", unit: "MB", better: "lower", bound: 0.25},
}

// exact names the metrics that are counts of a deterministic computation:
// two runs of one program on one seed report the same value to the last
// digit, so compare -same treats any difference as a breach.
var exact = map[string]bool{
	"cut_sum":     true,
	"core.levels": true, "core.refine_iters": true, "core.init_cut": true,
	"matching.matched_ratio": true, "matching.weight_ratio": true, "coarsen.shrink_ratio": true,
	"dist.edge_locality": true, "dist.ghost_ratio": true, "dist.supersteps_per_op": true,
	"dist.msgs_per_op": true, "dist.bytes_per_op": true, "wire.bytes_per_edge": true,
	"remote.shards_streamed_per_op": true, "remote.level_retries": true,
	"remote.worker_failures": true, "remote.local_fallbacks": true,
	"store.mapped": true, "store.shard_bytes": true, "store.csr_bytes": true,
	"initpart.cut": true, "initpart.nodes": true, "part.colors": true,
	"refine.band_nodes": true, "refine.moves": true, "refine.gain": true,
	"svc.rejected": true,
}

// perLayer is measured on the traced run. Every traced run reports every
// metric; a layer that is not on the workload's path reports 0.
var perLayer = []metricDecl{
	// How disturbed the machine was during the timed section (calib.go).
	{name: "bench.speed_ratio", unit: "ratio"},
	// core: the benchmark's stopwatch around ops and event arrivals.
	{name: "core.coarsen_s", unit: "s"}, {name: "core.init_s", unit: "s"}, {name: "core.refine_s", unit: "s"}, {name: "core.level0_s", unit: "s"},
	{name: "core.op_self_s", unit: "s"}, {name: "core.levels", unit: "count"}, {name: "core.refine_iters", unit: "count"}, {name: "core.init_cut", unit: "weight"},
	{name: "core.cpu_s_per_op", unit: "s"}, {name: "core.parallelism", unit: "ratio"}, {name: "core.trace_overhead_ratio", unit: "ratio"},
	// Probes: direct timed calls into each layer on the workload's input.
	{name: "matching.gpa_s", unit: "s"}, {name: "matching.gpa_edges_per_s", unit: "edges/s"}, {name: "matching.parallel_s", unit: "s"},
	{name: "matching.dist_s", unit: "s"}, {name: "matching.matched_ratio", unit: "ratio"}, {name: "matching.weight_ratio", unit: "ratio"},
	{name: "matching.allocs_per_call", unit: "count"},
	{name: "rating.rate_ns_per_edge", unit: "ns"},
	{name: "coarsen.contract_s", unit: "s"}, {name: "coarsen.contract_w1_s", unit: "s"}, {name: "coarsen.workers_speedup", unit: "ratio"},
	{name: "coarsen.contract_subgraph_s", unit: "s"}, {name: "coarsen.stitch_s", unit: "s"}, {name: "coarsen.project_s", unit: "s"},
	{name: "coarsen.shrink_ratio", unit: "ratio"}, {name: "coarsen.allocs_per_call", unit: "count"},
	{name: "dist.assign_s", unit: "s"}, {name: "dist.extract_s", unit: "s"}, {name: "dist.edge_locality", unit: "ratio"}, {name: "dist.ghost_ratio", unit: "ratio"},
	{name: "dist.exchanger_superstep_us", unit: "us"}, {name: "dist.socket_superstep_us", unit: "us"}, {name: "dist.socket_mb_s", unit: "MB/s"},
	{name: "dist.supersteps_per_op", unit: "count"}, {name: "dist.msgs_per_op", unit: "count"}, {name: "dist.bytes_per_op", unit: "bytes"},
	{name: "dist.barrier_s_per_op", unit: "s"},
	{name: "wire.encode_subgraph_mb_s", unit: "MB/s"}, {name: "wire.decode_subgraph_mb_s", unit: "MB/s"}, {name: "wire.bytes_per_edge", unit: "bytes"},
	{name: "wire.encode_contraction_mb_s", unit: "MB/s"}, {name: "wire.decode_contraction_mb_s", unit: "MB/s"},
	{name: "wire.msg_encode_ns_per_msg", unit: "ns"}, {name: "wire.msg_decode_ns_per_msg", unit: "ns"},
	{name: "remote.socket_over_inproc_ratio", unit: "ratio"}, {name: "remote.shards_streamed_per_op", unit: "count"},
	{name: "remote.level_retries", unit: "count"}, {name: "remote.worker_failures", unit: "count"}, {name: "remote.local_fallbacks", unit: "count"},
	{name: "store.write_s", unit: "s"}, {name: "store.write_mb_s", unit: "MB/s"}, {name: "store.open_verify_s", unit: "s"}, {name: "store.load_shards_s", unit: "s"},
	{name: "store.load_shards_mb_s", unit: "MB/s"}, {name: "store.map_graph_s", unit: "s"}, {name: "store.mapped", unit: "count"},
	{name: "store.shard_bytes", unit: "bytes"}, {name: "store.csr_bytes", unit: "bytes"},
	{name: "initpart.repeat_s", unit: "s"}, {name: "initpart.cut", unit: "weight"}, {name: "initpart.nodes", unit: "count"},
	{name: "part.from_blocks_s", unit: "s"}, {name: "part.quotient_s", unit: "s"}, {name: "part.coloring_s", unit: "s"}, {name: "part.colors", unit: "count"},
	{name: "pq.push_pop_ns_per_op", unit: "ns"},
	{name: "refine.sweep_s", unit: "s"}, {name: "refine.ns_per_band_node", unit: "ns"}, {name: "refine.band_nodes", unit: "count"},
	{name: "refine.moves", unit: "count"}, {name: "refine.gain", unit: "weight"}, {name: "refine.existing_s", unit: "s"},
	{name: "mem.peak_rss_mb", unit: "MB"}, {name: "mem.allocs_per_op", unit: "count"}, {name: "mem.alloc_mb_per_op", unit: "MB"}, {name: "mem.arena_reuse_ratio", unit: "ratio"},
	{name: "mem.arena_alloc_mb", unit: "MB"}, {name: "mem.gc_cycles_per_op", unit: "count"}, {name: "mem.gc_pause_ms_per_op", unit: "ms"},
	{name: "graphio.read_metis_mb_s", unit: "MB/s"}, {name: "graphio.read_binary_mb_s", unit: "MB/s"}, {name: "graphio.write_binary_mb_s", unit: "MB/s"},
	{name: "graphio.read_metis_allocs_per_node", unit: "count"}, {name: "gen.generate_s", unit: "s"},
	// svc / obs: the service seen from its clients, and its renderers.
	{name: "svc.op_p95_s", unit: "s"}, {name: "svc.submit_p50_s", unit: "s"}, {name: "svc.queue_wait_p50_s", unit: "s"}, {name: "svc.queue_wait_p95_s", unit: "s"}, {name: "svc.run_p50_s", unit: "s"},
	{name: "svc.fetch_p50_s", unit: "s"}, {name: "svc.overhead_p50_s", unit: "s"}, {name: "svc.run_over_bare_ratio", unit: "ratio"},
	{name: "svc.jobs_per_s", unit: "1/s"}, {name: "svc.rejected", unit: "count"}, {name: "svc.result_bytes_per_op", unit: "bytes"},
	{name: "svc.sse_events_per_op", unit: "count"}, {name: "obs.report_render_us", unit: "us"}, {name: "obs.metrics_scrape_us", unit: "us"},
}

// metricValue is one reported number, in the shape of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// report lays the set out against the declared list: every declared metric
// appears once, with 0 for a layer the workload did not exercise. A value
// under an undeclared name is a bug in the benchmark.
func (m metricSet) report(decls []metricDecl) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q measured but not declared", name)
		}
	}
	return out, nil
}

func printMetrics(w io.Writer, workload string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-16s %-34s %16.6g %s\n", workload, name, ms[name].Value, ms[name].Unit)
	}
}
