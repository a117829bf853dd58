package main

// The metric tables. BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds (the smoke test compares the
// two, both directions); what BENCHMARK.json has no field for — which
// end-to-end metric a layer metric is expected to move, and on which
// workload — lives here and in README.md.

// MetricSpec declares one metric.
type MetricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the driver's gate, as BENCHMARK.json declares it: the
	// share of the parent's median by which an end-to-end metric may
	// worsen before a change is rejected. The driver takes every run
	// with another seed and has no "unresolved" verdict, so the bound has
	// to cover seed-to-seed differences and the host's slow episodes.
	// Per-layer metrics have none.
	Bound float64
	// SameSeed is -compare's bound: two result files of one seed hold
	// the inputs fixed, -compare sees every repetition and may answer
	// "unresolved", so it can afford the tight figure.
	SameSeed float64
	// Exact marks counts: they repeat exactly for one program, so
	// -compare compares them exactly instead of against a spread.
	Exact bool
	// Moves names the end-to-end metric (and workload) a per-layer
	// metric is expected to move.
	Moves string
}

// endToEnd lists the metrics a user of the simulator pays: host time
// and memory to regenerate a figure or a fleet sweep. fail_share is
// reported as the attempted/failed counts of every run; it is not in
// this table because its healthy value is 0, which no ratio-to-median
// bound can be taken against. The bounds are what the driver's rule —
// ten runs, each with another seed, inter-quartile spread inside the
// bound — can hold on a shared host; README.md has the measurements
// they come from.
var endToEnd = []MetricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.08},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.08},
	{Name: "mallocs", Unit: "count", Better: "lower", Bound: 0.04, SameSeed: 0.01},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.20, SameSeed: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, SameSeed: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, SameSeed: 0.10},
}

const (
	movesSetup   = "setup_s"
	movesWallAll = "wall_s, cpu_s on every workload"
	movesTraceIO = "wall_s on trace-io"
	movesExplain = "explains a wall_s move; not a goal"
)

// perLayer lists the metrics of single layers. Prefixes are this
// repository's package names. All of them come from the traced
// repetition and the kernel suite; none is read from inside internal/*.
var perLayer = []MetricSpec{
	// Spans: seconds around public calls.
	{Name: "scenfile.compile_s", Unit: "s", Better: "lower", Moves: movesSetup + " on scenario-file workloads"},
	{Name: "video.encode_s", Unit: "s", Better: "lower", Moves: movesSetup + " on every workload"},
	{Name: "flowbatch.schedule_s", Unit: "s", Better: "lower", Moves: movesSetup + " on wide-batched and both fleets"},
	{Name: "topology.build_s", Unit: "s", Better: "lower", Moves: "wall_s, alloc_mb on fleet-mix"},
	{Name: "topology.build_ns_per_vflow", Unit: "ns", Better: "lower", Moves: "wall_s, alloc_mb on fleet-mix"},
	{Name: "sim.run_s", Unit: "s", Better: "lower", Moves: movesWallAll},
	{Name: "eval.score_s", Unit: "s", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix, wide-batched; 0 on the fleets"},
	{Name: "experiment.assemble_s", Unit: "s", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix"},
	{Name: "experiment.job_p50_s", Unit: "s", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix"},
	{Name: "experiment.job_max_s", Unit: "s", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix"},
	{Name: "runner.overhead_s", Unit: "s", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix"},
	{Name: "runner.speedup_p2", Unit: "ratio", Better: "higher", Moves: "the shared-state cost of parallel jobs (qbone-figs)"},
	{Name: "ptrace.record_s", Unit: "s", Better: "lower", Moves: movesTraceIO},
	{Name: "ptrace.spill_s", Unit: "s", Better: "lower", Moves: movesTraceIO},
	{Name: "ptrace.digest_s", Unit: "s", Better: "lower", Moves: movesTraceIO},
	{Name: "ptrace.compare_s", Unit: "s", Better: "lower", Moves: movesTraceIO},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none: the cost of the harness's own spans and profile"},

	// Counts: exact, from counters the elements already export.
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.scheduled", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.overflow_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.rebases", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.width_moves", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.width_us", Unit: "us", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "sim.purged_cancelled", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "flowbatch.vflows", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "flowbatch.emitted_pkts", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "tokenbucket.passed_pkts", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "tokenbucket.dropped_pkts", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "link.tx_pkts", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "link.busy_share", Unit: "ratio", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "queue.enqueued_pkts", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "queue.dropped_pkts", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "client.delivered_pkts", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "client.frames", Unit: "count", Better: "higher", Exact: true, Moves: movesExplain},
	{Name: "ptrace.events_seen", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "ptrace.events_kept", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "ptrace.bytes_per_event", Unit: "B", Better: "lower", Exact: true, Moves: movesTraceIO},
	{Name: "shard.stall_ratio", Unit: "ratio", Better: "lower", Moves: "wall_s on fleet-shards2"},
	{Name: "shard.fired_events", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "shard.injected_pkts", Unit: "count", Better: "lower", Exact: true, Moves: movesExplain},
	{Name: "shard.delivered_delta_pkts", Unit: "count", Better: "lower", Exact: true, Moves: "none: the sharded run's distance from the serial one"},
	{Name: "packet.pool_free", Unit: "count", Better: "lower", Exact: true, Moves: "peak_rss_mb"},

	// Derived.
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: "wall_s on all, most on fleet-mix and qbone-figs"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s on all, most on fleet-mix and qbone-figs"},
	{Name: "sim.events_per_pkt", Unit: "ratio", Better: "lower", Exact: true, Moves: "wall_s; the number an element-fusing change moves"},
	{Name: "sim.events_per_vflow", Unit: "ratio", Better: "lower", Exact: true, Moves: "wall_s on the fleets"},
	{Name: "mem.live_heap_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on the fleets"},
	{Name: "mem.bytes_per_vflow", Unit: "B", Better: "lower", Moves: "peak_rss_mb on the fleets"},
	{Name: "alloc.mallocs_per_event", Unit: "ratio", Better: "lower", Moves: "mallocs on unbatched-mix (closure events)"},
	{Name: "alloc.mallocs_per_vflow", Unit: "ratio", Better: "lower", Moves: "mallocs on fleet-mix"},
	{Name: "shard.speedup", Unit: "ratio", Better: "higher", Moves: "wall_s on fleet-shards2 against fleet-mix"},

	// Kernels: each layer's hot path replayed alone through its public
	// API, ns per operation net of the sim events it fires.
	{Name: "sim.kernel_dense_ns", Unit: "ns", Better: "lower", Moves: "wall_s on fleet-mix, wide-batched"},
	{Name: "sim.kernel_sparse_ns", Unit: "ns", Better: "lower", Moves: "wall_s on qbone-figs, unbatched-mix, trace-io"},
	{Name: "link.kernel_ns", Unit: "ns", Better: "lower", Moves: movesWallAll},
	{Name: "queue.kernel_ns", Unit: "ns", Better: "lower", Moves: movesWallAll},
	{Name: "tokenbucket.kernel_ns", Unit: "ns", Better: "lower", Moves: "wall_s on fleet-mix, wide-batched"},
	{Name: "node.kernel_ns", Unit: "ns", Better: "lower", Moves: "wall_s on wide-batched, unbatched-mix"},
	{Name: "client.kernel_ns", Unit: "ns", Better: "lower", Moves: "wall_s on the fleets"},
	{Name: "stats.kernel_ns", Unit: "ns", Better: "lower", Moves: "wall_s on the fleets"},
	{Name: "flowbatch.kernel_ns", Unit: "ns", Better: "lower", Moves: "wall_s on the fleets"},
	{Name: "packet.kernel_id_ns", Unit: "ns", Better: "lower", Moves: "runner.speedup_p2"},
	{Name: "ptrace.kernel_emit_ns", Unit: "ns", Better: "lower", Moves: movesTraceIO},

	// Attribution: layer count x kernel ns / sim.run_s.
	{Name: "attr.sim_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.flowbatch_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.link_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.queue_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.tokenbucket_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.node_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.client_share", Unit: "ratio", Better: "lower", Moves: "the layer table"},
	{Name: "attr.coverage", Unit: "ratio", Better: "higher", Moves: "the layer table: how much of sim.run_s the kernels explain"},

	// The same repetition's sampled CPU profile, bucketed by package.
	{Name: "prof.samples", Unit: "count", Better: "higher", Moves: "none: below 500 the shares are unresolved"},
	{Name: "prof.sim_share", Unit: "ratio", Better: "lower", Moves: "cross-check of attr.sim_share"},
	{Name: "prof.flowbatch_share", Unit: "ratio", Better: "lower", Moves: "cross-check of attr.flowbatch_share"},
	{Name: "prof.datapath_share", Unit: "ratio", Better: "lower", Moves: "cross-check of attr.link+queue+tokenbucket+node"},
	{Name: "prof.sinks_share", Unit: "ratio", Better: "lower", Moves: "cross-check of attr.client_share"},
	{Name: "prof.sources_share", Unit: "ratio", Better: "lower", Moves: "wall_s on unbatched-mix, qbone-figs"},
	{Name: "prof.eval_share", Unit: "ratio", Better: "lower", Moves: "cross-check of eval.score_s"},
	{Name: "prof.ptrace_share", Unit: "ratio", Better: "lower", Moves: movesTraceIO},
	{Name: "prof.runtime_share", Unit: "ratio", Better: "lower", Moves: "mallocs, alloc_mb: GC and allocator time"},
	{Name: "prof.other_share", Unit: "ratio", Better: "lower", Moves: "none: experiment, topology, runner, harness"},
}
