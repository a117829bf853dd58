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
// multi-flow rows of the equivalence harness in internal/experiment —
// while paying the source-side cost once; the fold is exact for the
// multi-flow topology and unavailable for random (Poisson) sources.
// This is what lets the nflow-wide scenario sweep N ∈ {16..512} with
// events per virtual flow falling as N grows.
//
// A batched MultiFlow.Run has two paths, and flowbatch's
// BatchedMixture.Run picks one. The pipeline runs every batched
// population of at most 1,024 flows, and a larger one given
// "dsbench -shards K" (MultiFlowConfig.Shards) above 1: the batched
// virtual flows partition round-robin into min(K, flows) shard
// workers, K = 1 by default, and advance as time-shifted copies of
// their class's base arrival sequence (the access-chain recurrence is
// shift-invariant) under a conservative lookahead window derived from
// the minimum latency of the access chain feeding the shared border,
// which is sound because the topology is feed-forward. A central
// sequencer takes every jitter through the mixture's one draw, in
// global arrival order, and the border simulator replays the
// deliveries in exact global (time, flow) order, firing its own events
// strictly before each delivery instant. Figures, per-flow statistics,
// policer verdicts and the merged packet trace therefore do not depend
// on K; the equivalence harness in internal/experiment pins that over
// seeds. The serial walk runs a larger population given no K, on the
// same arrival arrays, with one delivery timer on the simulator; it
// resolves a same-instant tie at the border by event sequence, so at
// 16 k flows it has been seen to deliver differently from the pipeline
// (ROADMAP.md, finding (a)). Only batched flows are partitionable: an
// unbatched or tandem point, whose servers run on the one simulator,
// reports one effective worker at any K.
//
// Six-figure fleets pair a batched mixture with aggregated statistics
// (MultiFlowConfig.AggregateStats): one client.Aggregate per class — delivered counts, streaming delay
// moments, fixed-size P² quantile sketches — keeps receive-side
// memory and figure assembly O(classes) instead of O(flows), at the
// price of frame-level semantics. The nflow-fleet scenario sweeps
// such a mixture to N = 200,000 virtual flows across the
// bottleneck's provisioning knee, recording events per virtual flow
// falling and bytes per virtual flow ~flat as N grows
// (CHANGES.md, PR 7; the fleet-mix workload of "go run ./benchmark").
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
// README.md's bake-off tables (CHANGES.md, PR 8) record what settled
// it: the adaptive policy tracks the best hand-tuned width per workload.
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
// packet traces alike — and the graph shape describes
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
// server to VQM score. "go run ./benchmark" is the performance
// instrument: six workloads against golden digests plus per-layer
// kernels (benchmark/README.md). census_test.go runs three passes over
// internal/: every package-level name and exported method is reached by
// product code, every exported configuration field is set by it, and
// every exported name is reached from outside its package or exposed
// by the type of a name that is; an exception is listed, with its
// reason, in testdata/census.allow.
//
// See README.md for the repository layout, the scenario registry, and
// the verification commands.
package repro
