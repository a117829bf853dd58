package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// The protocol constants, recorded in every result file.
const (
	// minReps timed repetitions are taken however short the run: below
	// nine a median on this kind of host is not worth reporting.
	minReps = 9
	// setupRepeats cold set-ups are timed, in a process of their own;
	// setup_s is their median. A set-up is milliseconds, so it takes this
	// many — each started from a collected heap — for the median to hold
	// still between runs.
	setupRepeats = 51
	// repDeadline stops a run that would outlive the driver's limit.
	repDeadline = 150 * time.Second
	// profileHz is the sampling rate asked for the traced repetition's
	// CPU profile: at the runtime's default 100 Hz a one-second
	// repetition yields too few samples to bucket. The kernel grants at
	// most its own tick rate (250 Hz on the reference host), so the
	// profile is also kept open over further repetitions until
	// profileSeconds have been sampled.
	profileHz      = 1000
	profileSeconds = 2.4
)

// options are one workload run's settings.
type options struct {
	seed         uint64
	seconds      float64
	trace        bool
	toy          bool   // smoke-test size: tiny grids, one repetition
	outDir       string // generated inputs, traces, span files
	srcDir       string // the benchmark's source directory (for -update-golden)
	cpuProfile   string // where the traced repetition's profile is kept ("" = outDir)
	updateGolden bool
}

// harness is the state of one workload's run.
type harness struct {
	w    *workload
	o    options
	in   *inputs
	prep *prepared
	tr   *Tracer // nil while spans are off
	root int     // parent of the spans being recorded

	golden    *Golden    // nil: self-consistency against the first repetition
	reference *repOutput // the first repetition checked (the warm-up)
	attempted int
	failed    int
	notes     []string
}

// repSample is one timed repetition.
type repSample struct {
	wall, cpu       float64
	mallocs, allocB uint64
}

// measure times body: wall clock, user+sys CPU of the process
// (getrusage), and the allocator's Mallocs / TotalAlloc deltas. The GC
// forced beforehand is outside the clock; it makes every repetition
// start from the same heap state.
func measure(body func()) repSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail with these arguments
	t := time.Now()
	body()
	wall := time.Since(t)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&m1)
	cpu := func(ru syscall.Rusage) float64 {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return repSample{wall: wall.Seconds(), cpu: cpu(ru1) - cpu(ru0),
		mallocs: m1.Mallocs - m0.Mallocs, allocB: m1.TotalAlloc - m0.TotalAlloc}
}

// timeSetups times n cold set-ups, each started from a collected heap.
func timeSetups(in *inputs, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := in.setup(nil, -1); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// timeSetupsInChild takes the set-up timings in a process of their own
// (this binary, -setups-only) and waits for it to end. Every cold
// set-up leaves its encodings' paced schedules behind in flowbatch's
// process-lifetime cache; fifty of them in the measuring process would
// be most of a fleet workload's peak_rss_mb. A fresh process is also
// what pays a set-up in real use.
func timeSetupsInChild(w *workload, o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-setups-only", "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-out", o.outDir)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up timing process: %w", err)
	}
	var setups []float64
	if err := json.Unmarshal(data, &setups); err != nil || len(setups) == 0 {
		return nil, fmt.Errorf("set-up timing process printed %q: %v", data, err)
	}
	return setups, nil
}

// setupsOnly is that child: generate the inputs, time the set-ups,
// print them as one JSON array.
func setupsOnly(w *workload, o options) int {
	in, err := generateInputs(w, o.seed, false, filepath.Join(o.outDir, "inputs"))
	if err == nil {
		var setups []float64
		if setups, err = timeSetups(in, setupRepeats); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(setups)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM from
// /proc, or the same figure from getrusage where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var kb float64
			if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
				return kb * 1024 / 1e6
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

func (h *harness) note(format string, args ...any) {
	h.notes = append(h.notes, fmt.Sprintf(format, args...))
}

// check counts one repetition's operations and failures: outright
// failures (panic, error, unreadable trace) plus operations whose
// digest does not match the golden — or, without a golden, the first
// repetition of this run.
func (h *harness) check(out *repOutput, label string) {
	h.attempted += len(out.ops)
	failed := out.failed
	for _, e := range out.errs {
		h.note("%s: %s", label, e)
	}
	if h.reference == nil {
		h.reference = out
	}
	switch {
	case h.golden != nil:
		n, why := h.golden.check(out)
		if n > 0 {
			h.note("%s: %s", label, why)
		}
		failed += n
	case out.digest() != h.reference.digest():
		h.note("%s: digest %s differs from the first repetition's %s", label, out.digest()[:16], h.reference.digest()[:16])
		failed += len(out.ops) - out.failed
	}
	if failed > len(out.ops) {
		failed = len(out.ops)
	}
	h.failed += failed
}

// runWorkload runs one workload's whole protocol in this process:
// cold set-ups, a warm-up repetition, the timed repetitions with every
// kind of tracing off, and — under trace — the traced repetition, the
// re-drive and the kernel suite.
func runWorkload(w *workload, o options) (*WorkloadResult, error) {
	h := &harness{w: w, o: o, root: -1}
	var err error
	if h.in, err = generateInputs(w, o.seed, o.toy, filepath.Join(o.outDir, "inputs")); err != nil {
		return nil, err
	}
	if o.seed == experiment.DefaultSeed && !o.toy && !o.updateGolden {
		if h.golden, err = loadGolden(w.name); err != nil {
			return nil, err
		}
	}

	reps := minReps
	var setups []float64
	if o.toy {
		reps = 1
		setups, err = timeSetups(h.in, 2)
	} else {
		setups, err = timeSetupsInChild(w, o)
	}
	if err != nil {
		return nil, err
	}
	if h.prep, err = h.in.setup(nil, -1); err != nil {
		return nil, err
	}

	opts := experiment.RunOptions{Parallel: 1, Shards: w.shards}
	if !o.toy {
		h.check(h.in.runRep(h.prep, opts, nil, -1), "warm-up")
	}

	var wall, cpu, mallocs, allocMB []float64
	start := time.Now()
	for n := 0; n < reps || (!o.toy && time.Since(start).Seconds() < o.seconds); n++ {
		if time.Since(start) > repDeadline {
			h.note("stopped after %d repetitions: the run would outlive its deadline", n)
			break
		}
		var out *repOutput
		s := measure(func() { out = h.in.runRep(h.prep, opts, nil, -1) })
		wall, cpu = append(wall, s.wall), append(cpu, s.cpu)
		mallocs, allocMB = append(mallocs, float64(s.mallocs)), append(allocMB, float64(s.allocB)/1e6)
		h.check(out, fmt.Sprintf("repetition %d", n+1))
	}
	peak := peakRSSMB() // before the traced part: end-to-end metrics never include it

	res := &WorkloadResult{Name: w.name, Reps: len(wall), EndToEnd: map[string]Measurement{
		"wall_s":      {"s", summarize(wall)},
		"cpu_s":       {"s", summarize(cpu)},
		"mallocs":     {"count", summarize(mallocs)},
		"alloc_mb":    {"MB", summarize(allocMB)},
		"peak_rss_mb": {"MB", exact(peak)},
		"setup_s":     {"s", summarize(setups)},
	}}

	if o.trace {
		if err := h.traced(res, opts, res.EndToEnd["wall_s"].Median); err != nil {
			return nil, err
		}
	}
	res.Digest = h.reference.digest()
	res.Attempted, res.Failed = h.attempted, h.failed
	res.FailShare = float64(h.failed) / float64(h.attempted)
	res.Correct = h.failed == 0
	res.Notes = h.notes
	return res, nil
}

// traced is everything -trace adds: a cold set-up and one repetition
// under spans and a CPU profile, the re-drive of the heaviest grid
// point, the kernel suite, and the per-layer metrics derived from them.
func (h *harness) traced(res *WorkloadResult, opts experiment.RunOptions, untracedWall float64) error {
	h.tr = newTracer()
	var err error

	// Repetition 0: the set-up spans.
	h.tr.SetRep(0)
	h.root = h.tr.Start("setup", -1)
	if h.prep, err = h.in.setup(h.tr, h.root); err != nil {
		return err
	}
	h.tr.End(h.root)

	// Repetition 1: the traced repetition, profiled.
	h.tr.SetRep(1)
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz) // StartCPUProfile then keeps this rate (and says so on stderr)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	h.root = h.tr.Start("repetition", -1)
	out := h.in.runRep(h.prep, opts, h.tr, h.root)
	tracedWall := h.tr.End(h.root)
	h.check(out, "traced repetition")
	for sampled := tracedWall; sampled < profileSeconds && !h.o.toy; {
		t := time.Now()
		h.check(h.in.runRep(h.prep, opts, nil, -1), "profiled repetition")
		sampled += time.Since(t).Seconds()
	}
	pprof.StopCPUProfile()
	profPath := h.o.cpuProfile
	if profPath == "" {
		profPath = filepath.Join(h.o.outDir, "cpu-"+h.w.name+".pprof")
	}
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return err
	}
	samples, shares, err := profileShares(prof.Bytes())
	if err != nil {
		return err
	}

	// Repetition 2: the re-drive of the heaviest grid point.
	h.tr.SetRep(2)
	h.root = h.tr.Start("redrive", -1)
	rd, err := h.w.redrive(h)
	h.tr.End(h.root)
	if err != nil {
		return err
	}
	h.crossCheck(rd, out)

	// One more repetition on two job workers, where the workload has
	// more than one job to spread.
	speedupP2 := 0.0
	if h.prep.jobs > 1 && h.w.shards <= 1 && !h.w.traceIO {
		t := time.Now()
		h.check(h.in.runRep(h.prep, experiment.RunOptions{Parallel: 2}, nil, -1), "Parallel: 2 repetition")
		speedupP2 = untracedWall / time.Since(t).Seconds()
	}

	scale := 1
	if h.o.toy {
		scale = 2000
	}
	kernels := runKernels(scale)

	res.PerLayer = h.perLayer(rd, kernels, shares, samples, tracedWall, untracedWall, speedupP2)
	if samples < profSampleFloor {
		h.note("cpu profile has %d samples (< %d): prof.* shares are unresolved", samples, profSampleFloor)
	}
	return h.writeTrace(kernels, samples)
}

// crossCheck holds the re-driven point against the scenario's own
// result for the same grid point and, at the default seed, against the
// golden physics counters.
func (h *harness) crossCheck(rd *redriveResult, out *repOutput) {
	h.attempted++
	ok := true
	if rd.point >= 0 && len(out.points) > 0 && rd.point < len(out.points[0]) {
		pt := out.points[0][rd.point]
		if math.Abs(pt.PacketLoss-rd.c.packetLoss) > 1e-12 {
			ok = false
			h.note("re-drive policer loss %.9g, scenario's %.9g", rd.c.packetLoss, pt.PacketLoss)
		}
		for ci, cs := range pt.Classes {
			if ci >= len(rd.c.deliveredBy) || cs.Packets != rd.c.deliveredBy[ci] {
				ok = false
				h.note("re-drive and scenario disagree on class %s delivered packets (scenario's %d)", cs.Name, cs.Packets)
			}
		}
	}
	if h.golden != nil {
		if same, why := samePhysics(rd.c.physics, h.golden.Physics); !same {
			ok = false
			h.note("re-drive: %s", why)
		}
	}
	if !ok {
		h.failed++
	}
	if h.o.updateGolden {
		g := &Golden{Workload: h.w.name, Seed: h.o.seed, TextSHA256: textSHA(out.text),
			Ops: out.ops, Physics: rd.c.physics}
		if err := writeGolden(h.o.srcDir, g); err != nil {
			h.failed++
			h.note("writing golden: %v", err)
		} else {
			h.note("golden/%s.json rewritten", h.w.name)
		}
	}
}

// perLayer derives every per-layer metric. Metrics that do not apply to
// the workload read 0.
func (h *harness) perLayer(rd *redriveResult, kernels kernelSuite, shares map[string]float64,
	samples int64, tracedWall, untracedWall, speedupP2 float64) map[string]Measurement {

	v := map[string]float64{}
	spans := h.tr.Spans()
	sum := func(name string, rep int) float64 { t, _ := sumSpans(spans, name, rep); return t }

	// Spans.
	v["scenfile.compile_s"] = sum("scenfile.compile", 0)
	v["video.encode_s"] = sum("video.encode", 0)
	v["flowbatch.schedule_s"] = sum("flowbatch.schedule", 0)
	v["topology.build_s"] = rd.buildS
	v["sim.run_s"] = rd.runS
	v["eval.score_s"] = rd.evalS
	v["experiment.assemble_s"] = sum("experiment.assemble", 1)
	jobTotal, jobs := sumSpans(spans, "experiment.job", 1)
	if len(jobs) > 0 {
		sort.Float64s(jobs)
		v["experiment.job_p50_s"] = median(jobs)
		v["experiment.job_max_s"] = jobs[len(jobs)-1]
	}
	v["runner.overhead_s"] = sum("runner.map", 1) - jobTotal - v["experiment.assemble_s"]
	v["runner.speedup_p2"] = speedupP2
	v["ptrace.record_s"], v["ptrace.spill_s"] = rd.recordS, rd.spillS
	v["ptrace.digest_s"], v["ptrace.compare_s"] = rd.digestS, rd.compareS
	v["trace.overhead_share"] = (tracedWall - untracedWall) / untracedWall

	// Counts.
	c := rd.c
	flows := float64(c.flows)
	v["sim.events"], v["sim.scheduled"] = float64(c.events), float64(c.scheduled)
	v["sim.overflow_ratio"], v["sim.rebases"] = c.overflowRatio, float64(c.rebases)
	v["sim.width_moves"], v["sim.width_us"] = float64(c.widthMoves), c.widthUS
	v["sim.purged_cancelled"] = float64(c.purged)
	v["flowbatch.vflows"], v["flowbatch.emitted_pkts"] = float64(c.vflows), float64(c.emitted)
	v["tokenbucket.passed_pkts"], v["tokenbucket.dropped_pkts"] = float64(c.passed), float64(c.dropped)
	v["link.tx_pkts"], v["link.busy_share"] = float64(c.linkTx), c.busyShare
	v["queue.enqueued_pkts"], v["queue.dropped_pkts"] = float64(c.enqueued), float64(c.queueDrops)
	v["client.delivered_pkts"], v["client.frames"] = float64(c.delivered), float64(c.frames)
	v["ptrace.events_seen"], v["ptrace.events_kept"] = float64(rd.eventsSeen), float64(rd.eventsKept)
	v["ptrace.bytes_per_event"] = rd.bytesPerEvent
	v["packet.pool_free"] = float64(c.poolFree)
	if rd.other != nil {
		sharded, serial := rd, rd.other
		if h.w.shards <= 1 {
			sharded, serial = rd.other, rd
		}
		v["shard.stall_ratio"] = sharded.c.shard.StallRatio
		v["shard.fired_events"] = float64(sharded.c.shard.ShardFired)
		v["shard.injected_pkts"] = float64(sharded.c.shard.Injected)
		for i := range sharded.c.deliveredBy {
			v["shard.delivered_delta_pkts"] += math.Abs(float64(sharded.c.deliveredBy[i] - serial.c.deliveredBy[i]))
		}
		v["shard.speedup"] = serial.runS / sharded.runS
	}

	// Derived.
	events := float64(c.events)
	v["sim.ns_per_event"] = rd.runS * 1e9 / events
	v["sim.events_per_s"] = events / rd.runS
	v["sim.events_per_pkt"] = events / float64(c.offered)
	v["sim.events_per_vflow"] = events / flows
	v["topology.build_ns_per_vflow"] = rd.buildS * 1e9 / flows
	v["mem.live_heap_mb"] = rd.liveHeapBytes / 1e6
	v["mem.bytes_per_vflow"] = rd.liveHeapBytes / flows
	v["alloc.mallocs_per_event"] = float64(rd.mallocs) / events
	v["alloc.mallocs_per_vflow"] = float64(rd.mallocs) / flows

	// Kernels.
	for name, k := range kernels {
		v[name] = k.ns
	}

	// Attribution: layer count x kernel ns over the re-drive's sim.run_s.
	// The engine's per-event cost is the dense kernel's when events are
	// less than denseGap of simulated time apart, the sparse one's
	// otherwise.
	const denseGap = 5e-6
	simNS := v["sim.kernel_sparse_ns"]
	if c.simSeconds/events < denseGap {
		simNS = v["sim.kernel_dense_ns"]
	}
	runNS := rd.runS * 1e9
	v["attr.sim_share"] = events * simNS / runNS
	v["attr.flowbatch_share"] = float64(c.emitted) * v["flowbatch.kernel_ns"] / runNS
	v["attr.link_share"] = float64(c.linkTx) * v["link.kernel_ns"] / runNS
	v["attr.queue_share"] = float64(c.enqueued+c.queueDrops) * v["queue.kernel_ns"] / runNS
	v["attr.tokenbucket_share"] = float64(c.passed+c.dropped) * v["tokenbucket.kernel_ns"] / runNS
	v["attr.node_share"] = float64(c.routed) * v["node.kernel_ns"] / runNS
	v["attr.client_share"] = float64(c.delivered) * v["client.kernel_ns"] / runNS
	for _, name := range []string{"sim", "flowbatch", "link", "queue", "tokenbucket", "node", "client"} {
		v["attr.coverage"] += v["attr."+name+"_share"]
	}

	// Profile.
	v["prof.samples"] = float64(samples)
	for name, share := range shares {
		v[name] = share
	}

	out := make(map[string]Measurement, len(perLayer))
	for _, spec := range perLayer {
		x := v[spec.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[spec.Name] = Measurement{spec.Unit, exact(x)}
	}
	return out
}

// traceFile is what -trace leaves under the output directory.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Spans       []Span             `json:"spans"`
	SelfS       []float64          `json:"self_s"` // per span: duration minus what its children cover
	KernelAlloc map[string]float64 `json:"kernel_allocs_per_op"`
	ProfSamples int64              `json:"profile_samples"`
}

func (h *harness) writeTrace(kernels kernelSuite, samples int64) error {
	spans := h.tr.Spans()
	tf := traceFile{Workload: h.w.name, Seed: h.o.seed, Spans: spans, SelfS: selfTimes(spans),
		KernelAlloc: map[string]float64{}, ProfSamples: samples}
	for name, k := range kernels {
		tf.KernelAlloc[strings.TrimSuffix(name, "_ns")+"_allocs"] = k.allocs
	}
	return writeJSONFile(filepath.Join(h.o.outDir, "trace-"+h.w.name+".json"), tf)
}
