// Package repro reproduces "On the Impact of Policing and Rate
// Guarantees in Diff-Serv Networks: A Video Streaming Application
// Perspective" (Ashmawi, Guérin, Wolf, Pinson — SIGCOMM 2001) as a
// deterministic packet-level simulation study in pure Go.
//
// The library lives under internal/: a discrete-event simulator (sim —
// pooled events on a calendar-queue scheduler behind one Timer
// scheduling API), the DiffServ data plane
// (packet, tokenbucket, queue, link, node — with strict-priority, DRR,
// WFQ and RIO schedulers behind one per-class-accounted Scheduler
// interface, and one srTCM marker for AF), traffic sources (traffic),
// the video content and encoder models (video), streaming servers
// (server, tcpsim), the instrumented client and renderer-concealment
// pipeline (client, render, trace), the objective quality model (vqm),
// the declarative network-graph builder with the paper testbeds as
// presets (topology) and the measurement harness that regenerates
// every table and figure of the paper (experiment).
//
// Figures are modelled as named scenarios (experiment.Scenario) and
// executed on a deterministic worker pool (runner) that keeps output
// byte-identical at every parallelism level. Beyond the paper's
// figures, the registry carries scaling scenarios (N competing flows,
// bottleneck-scheduler comparison, tandem policed borders, and the
// flow-batched nflow-wide sweep to hundreds of virtual flows) built
// on the topology builder.
//
// Identical paced flows are batched (flowbatch): one representative
// emission schedule per equivalence class — same encoding, rate and
// packet sizing — cached and fanned out as phase-offset virtual flows
// by the one batched source, flowbatch.BatchedMixture, which folds the
// per-flow access link (exact serialization emulation) and campus
// jitter (root-RNG draws in global arrival order) into itself. K
// classes — each with its own schedule, access chain, policing
// profile, phase and stagger — fan out class-major into one
// interleaved emission stream in exact global (time, flow) order; a
// homogeneous population (MultiFlowConfig.N) is the K = 1 case of the
// one multi-flow build (MultiFlowConfig.Classes). Virtual flows keep
// distinct flow ids, policers, taps and per-flow statistics, and a
// batched build is byte-identical to N real servers — pinned by the
// batcheq and mixeq differential harnesses in internal/experiment —
// while paying the source-side cost once; the fold is exact for the
// multi-flow topology and unavailable for random (Poisson) sources.
// This is what lets the nflow-wide scenario sweep N ∈ {16..512} with
// events per virtual flow falling as N grows.
//
// MultiFlow.Run has two paths. Serial: the source (or the N paced
// servers of an unbatched build) runs on the one simulator. Sharded
// ("dsbench -shards K", MultiFlowConfig.Shards), with byte-identical
// output: the batched virtual flows partition round-robin into
// min(K, flows) shard workers and advance as time-shifted replays of
// their class's base arrival sequence (flowbatch.BaseArrivals; the
// access-chain recurrence is shift-invariant) under a conservative
// lookahead window derived from the minimum latency of the access
// chain feeding the shared border, which is sound because the topology
// is feed-forward. A central sequencer draws the root-RNG jitter stream
// at exactly the serial positions, and the border simulator replays
// shard emissions in exact global (time, flow) order, firing its own
// events strictly before each emission instant, so figures, per-flow
// statistics, policer verdicts and the merged packet trace are
// bit-equal to the serial run at every shard count — pinned by the
// shardeq differential harness in internal/experiment and
// internal/topology. Unlike flow batching, sharding has no large-N
// divergence boundary. Only batched flows are partitionable: an
// unbatched or tandem point asked for K shards runs serially and
// reports one effective worker.
//
// Six-figure fleets pair a batched mixture with aggregated statistics
// (MultiFlowConfig.AggregateStats): one client.Aggregate per class — delivered counts, streaming delay
// moments, fixed-size P² quantile sketches — keeps receive-side
// memory and figure assembly O(classes) instead of O(flows), at the
// price of frame-level semantics. The nflow-fleet scenario sweeps
// such a mixture to N = 200,000 virtual flows across the
// bottleneck's provisioning knee, recording events per virtual flow
// falling and bytes per virtual flow ~flat as N grows
// (BENCH_PR7.json).
//
// The event queue tunes itself: the calendar's bucket width adapts to
// the mean firing spacing the queue serves, re-derived only at window
// rebases (where the lattice is provably empty) with power-of-two
// targets, clamps and two-level hysteresis, so dense fleets converge
// onto narrow buckets and sparse cancel-heavy TCP timer schedules
// onto wide ones with zero effect on firing order — event order, and
// output, stay width-invariant at every geometry, and rebases also
// compact cancel-storm dead weight out of the overflow heap. Nothing
// above the engine sets a width: sim.NewWithBucketWidth pins the
// geometry only for the engine's own width-invariance tests and
// benchmark. Per-run telemetry (rebases, final width, overflow ratio)
// is filed as experiment.RunStats — one per job, in Figure.Runs and
// under "runs" in "dsbench -json", never on the figure's Points — and
// BENCH_PR8.json records the bake-off that settled it: the adaptive
// policy tracks the best hand-tuned width per workload.
//
// Below the frame layer, the packet tracing subsystem (ptrace) makes
// the datapath observable: every component carries a nil-by-default
// Tap emitting compact value-type events — link enqueue/tx/deliver,
// queue and AQM drops, policer and marker verdicts, shaper releases,
// client deliveries with one-way delay, TCP send/ACK/RTO — into a
// bounded per-run Recorder (ring + head pinning + sampling + kind and
// flow filters). Disabled tracing is a pointer comparison per tap
// point and the hot paths keep their zero-allocation budget; enabled
// tracing writes into storage allocated at the first write. Traces are
// written in one encoding, the delta-packed binary v2 (~10
// bytes/event), whose trailer-placed totals let the Recorder spill a
// complete filtered capture to disk during the run ("dsbench -trace
// DIR -trace-spill"): the file is then the capture, no ring is kept in
// RAM, and the file is atomically published. A run's .digest is folded
// while the trace is encoded, never read back from it. cmd/dstrace
// reads traces only in bounded-memory streaming passes (counts,
// Welford moments and P² sketches per hop and flow, never the event
// slice): per-hop drop and residence-delay breakdown, policer verdict
// timelines, per-flow latency percentiles, frame-loss attribution by a
// second pass joined against the client's frame trace, and behavioral
// regression diffing ("dstrace -compare a.ptrace b.ptrace"), which
// joins two runs' digests into a per-hop/per-flow delta table and
// exits non-zero on a threshold breach — a CI gate for drift the
// figure goldens summarize away.
//
// Scenarios are also data: internal/scenfile compiles versioned JSON
// scenario files into the same experiment.Scenario registry the Go
// presets live in ("dsbench -scenario-file FILE"). Preset shapes
// (multiflow, fleet, tandem) mirror the sweep specs field for field —
// checked-in files re-expressing nflow and tandem are pinned
// byte-identical to their Go twins, figures, per-flow stats and
// canonicalized packet traces alike — and the graph shape describes
// arbitrary element topologies compiled straight onto the topology
// builder, so workloads like the dumbbell (two edge bottlenecks, a
// shared core, cross-directional EF video) exist only as config
// files. Validation rejects malformed files up front with errors that
// name the offending field, and the declared shard capability gates
// -shards. Config-file-only workloads are pinned by digest
// goldens: "dsbench -trace-digest" writes a behavioral summary
// (.digest) beside each sealed trace and "dstrace -compare-golden
// GOLDEN.digest RUN.ptrace" gates a run against the stored baseline.
//
// The per-packet hot paths are allocation-free: packet.Handler.Handle
// takes ownership of its packet ("forward it, hold it, or terminate
// it and release it to the packet.Pool"), every terminal path
// releases, and each runner worker owns a persistent pool arena so
// arenas never cross goroutines. See the packet and sim package
// comments for the two contracts (packet ownership; Timer scheduling
// and generation-checked event Handles).
//
// Entry points: cmd/dsbench regenerates all artifacts (every figure
// through "dsbench -scenario", programmatically
// experiment.RunScenarioOpts), cmd/dsstream runs one experiment,
// cmd/vqmtool scores stored frame traces, and cmd/dstrace analyzes
// packet traces. internal/experiment's Example walks one stream from
// server to VQM score. bench_test.go in this directory carries one
// benchmark per paper artifact, and census_test.go keeps every
// exported name under internal/ reached by product code or listed,
// with its reason, in testdata/census.allow.
//
// See README.md for the repository layout, the scenario registry, and
// the verification commands.
package repro
