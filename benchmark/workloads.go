package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/flowbatch"
	"repro/internal/ptrace"
	"repro/internal/scenfile"
	"repro/internal/units"
	"repro/internal/video"
)

// The scenario files are embedded so the harness finds them whatever
// directory it is started from; every run still goes through a file on
// disk (the seed-substituted copy under the output directory), because
// loading and compiling that file is part of the measured set-up.
//
//go:embed workloads/*.scenario.json
var workloadFS embed.FS

// encRef names one encoding a workload streams, so set-up can prime the
// caches the first job would otherwise fill.
type encRef struct {
	clip  string // "lost" or "dark"
	rate  units.BitRate
	vbr   bool
	paced bool // the workload also uses the cached paced schedule
}

// clipModel resolves a scenario file's clip name.
func clipModel(name string) *video.Clip {
	if name == "dark" {
		return video.Dark()
	}
	return video.Lost()
}

// part is one scenario of a workload: a scenario file (template under
// workloads/, tuned per run) or a paper-figure spec built in Go.
type part struct {
	file  string
	tune  func(f *scenfile.File, seed uint64, toy bool)
	build func(seed uint64, toy bool) experiment.Scenario
	encs  []encRef
}

// workload is one named input set. The names are final: later issues
// refer to them.
type workload struct {
	name    string
	why     string
	parts   []part
	shards  int  // RunOptions.Shards of every repetition
	traceIO bool // repetitions write, seal, digest and diff packet traces
	redrive func(h *harness) (*redriveResult, error)
}

func multiflowSeed(f *scenfile.File, seed uint64, toyFlows []int, toy bool) {
	f.Multiflow.Seed = seed
	if toy {
		f.Multiflow.Flows = toyFlows
	}
}

func fleetTune(f *scenfile.File, seed uint64, toy bool) {
	f.Fleet.Seed = seed
	if toy {
		f.Fleet.Flows = []int{200}
		f.Fleet.BottleneckRateBps = 26e6
	}
}

var fleetEncs = []encRef{
	{clip: "lost", rate: 1.0e6, paced: true},
	{clip: "dark", rate: 1.5e6, paced: true},
}

func thinLocal(spec experiment.LocalSpec, key string, seed uint64, toy bool) experiment.LocalSpec {
	spec.Key, spec.Seed = key, seed
	if toy {
		spec.Tokens, spec.Depths = spec.Tokens[:1], spec.Depths[:1]
	}
	return spec
}

var workloads = []*workload{
	{
		name: "qbone-figs",
		why:  "the paper's own path and the cheapest event: sim, link, EF priority queue, Poisson cross traffic, one policer, render+vqm",
		parts: []part{{
			build: func(seed uint64, toy bool) experiment.Scenario {
				spec := experiment.Figure7Spec()
				spec.Key, spec.Seed = "bench-fig7", seed
				spec.Tokens = []units.BitRate{spec.Tokens[0], spec.Tokens[len(spec.Tokens)-1]}
				spec.Runs = 1
				if toy {
					spec.Tokens, spec.Depths, spec.CrossLoad = spec.Tokens[:1], spec.Depths[:1], 0.02
				}
				return spec
			},
			encs: []encRef{{clip: "lost", rate: 1.7e6}},
		}},
		redrive: redriveQBone,
	},
	{
		name: "unbatched-mix",
		why:  "uses sim the opposite way to the fleet: sparse closure-scheduled servers, TCP timers, DRR/WFQ, per-flow UDP clients; fleet optimisations must show no change here",
		parts: []part{
			{
				file: "nflow.scenario.json",
				tune: func(f *scenfile.File, seed uint64, toy bool) { multiflowSeed(f, seed, []int{1}, toy) },
				encs: []encRef{{clip: "lost", rate: 1.0e6}},
			},
			{
				build: func(seed uint64, toy bool) experiment.Scenario {
					spec := experiment.SchedCompareSpecDefault()
					spec.Key, spec.Seed = "bench-schedcomp", seed
					spec.Loads = []float64{0.5, 1.0, 2.0}
					if toy {
						spec.N, spec.Loads = 1, spec.Loads[:1]
					}
					return spec
				},
				encs: []encRef{{clip: "lost", rate: 1.0e6}},
			},
			{
				build: func(seed uint64, toy bool) experiment.Scenario {
					return thinLocal(experiment.Figure15Spec(), "bench-fig15", seed, toy)
				},
				encs: []encRef{{clip: "lost", rate: units.BitRate(video.WMVCapKbps) * units.Kbps, vbr: true}},
			},
			{
				build: func(seed uint64, toy bool) experiment.Scenario {
					return thinLocal(experiment.Figure16Spec(), "bench-fig16", seed, toy)
				},
			},
			{
				// Figures 15 and 16 stream over UDP; the same grid over TCP
				// is what puts tcpsim's RTO timers into this workload.
				build: func(seed uint64, toy bool) experiment.Scenario {
					spec := thinLocal(experiment.Figure15Spec(), "bench-fig15-tcp", seed, toy)
					spec.ID, spec.UseTCP = "Figure 15 (TCP)", true
					return spec
				},
			},
		},
		redrive: func(h *harness) (*redriveResult, error) { return redriveMultiflow(h, false) },
	},
	{
		name: "wide-batched",
		why:  "the homogeneous batched fan-out: one source walking 320 virtual flows into 320 policers, a flow demux and 320 UDP clients with evaluation",
		parts: []part{{
			file: "wide.scenario.json",
			tune: func(f *scenfile.File, seed uint64, toy bool) { multiflowSeed(f, seed, []int{4}, toy) },
			encs: []encRef{{clip: "lost", rate: 1.0e6, paced: true}},
		}},
		redrive: func(h *harness) (*redriveResult, error) { return redriveMultiflow(h, true) },
	},
	{
		name: "fleet-mix",
		why:  "the scale path: a two-class batched mixture at 2x overload, microsecond event spacing, contiguous policers, aggregated sinks; working set set by N, not clip length",
		parts: []part{{
			file: "fleet.scenario.json", tune: fleetTune, encs: fleetEncs,
		}},
		redrive: func(h *harness) (*redriveResult, error) { return redriveFleet(h, 1) },
	},
	{
		name: "fleet-shards2",
		why:  "the same fleet file on the sharded pipeline: border replay instead of a wheel walk, two cores instead of one; cpu_s against wall_s separates faster from parallel",
		parts: []part{{
			file: "fleet.scenario.json", tune: fleetTune, encs: fleetEncs,
		}},
		shards:  2,
		redrive: func(h *harness) (*redriveResult, error) { return redriveFleet(h, 2) },
	},
	{
		name: "trace-io",
		why:  "writes beside reads on the one layer with an on-disk format: recorder taps, v2 spill, streaming digest, summary diff; page-cache I/O, so bytes and ns per event, never MB/s",
		parts: []part{{
			file: "tandem.scenario.json",
			tune: func(f *scenfile.File, seed uint64, toy bool) { f.Tandem.Seed = seed },
			encs: []encRef{{clip: "lost", rate: 1.0e6}},
		}},
		traceIO: true,
		redrive: redriveTandem,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs are a workload's generated inputs for one seed: the simulator
// only ever sees these, never the seed argument itself.
type inputs struct {
	w     *workload
	seed  uint64
	toy   bool
	dir   string           // where generated files and traces go
	paths []string         // per part: generated scenario file ("" for spec parts)
	files []*scenfile.File // per part: the parsed, tuned file (nil for spec parts)
}

// generateInputs substitutes the seed into the workload's scenario
// files and writes them under dir.
func generateInputs(w *workload, seed uint64, toy bool, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, toy: toy, dir: dir,
		paths: make([]string, len(w.parts)), files: make([]*scenfile.File, len(w.parts))}
	for i, p := range w.parts {
		if p.file == "" {
			continue
		}
		data, err := workloadFS.ReadFile("workloads/" + p.file)
		if err != nil {
			return nil, err
		}
		f, err := scenfile.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("workloads/%s: %w", p.file, err)
		}
		p.tune(f, seed, toy)
		out, err := f.Marshal()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, w.name+"-"+p.file)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return nil, err
		}
		in.paths[i], in.files[i] = path, f
	}
	return in, nil
}

// prepared is what one cold set-up leaves behind: compiled scenarios
// with warm caches, ready for the first job.
type prepared struct {
	scenarios []experiment.Scenario
	jobCounts []int // grid points per scenario
	jobs      int   // grid points per repetition: the operations counted
}

// setup is the cold set-up whose median duration is setup_s: empty the
// encoding cache, load and compile the scenario files (or build the
// specs), prime every encoding and paced schedule the jobs will ask
// for, enumerate the jobs. The clock stops before the first job runs.
// tr may be nil (spans off).
func (in *inputs) setup(tr *Tracer, parent int) (*prepared, error) {
	video.ResetEncodingCache()
	p := &prepared{}
	var err error
	for i, part := range in.w.parts {
		var s experiment.Scenario
		if part.file != "" {
			timed(tr, "scenfile.compile", parent, func() {
				s, err = scenfile.LoadScenario(in.paths[i])
			})
			if err != nil {
				return nil, err
			}
		} else {
			s = part.build(in.seed, in.toy)
		}
		for _, e := range part.encs {
			var enc *video.Encoding
			timed(tr, "video.encode", parent, func() {
				if e.vbr {
					enc = video.CachedVBR(clipModel(e.clip), e.rate)
				} else {
					enc = video.CachedCBR(clipModel(e.clip), e.rate)
				}
			})
			if e.paced {
				timed(tr, "flowbatch.schedule", parent, func() { flowbatch.CachedPacedSchedule(enc) })
			}
		}
		n := len(s.Jobs())
		p.scenarios = append(p.scenarios, s)
		p.jobCounts = append(p.jobCounts, n)
		p.jobs += n
	}
	return p, nil
}

// capture wraps a scenario so the harness sees the job results in job
// order — results[i] is grid point i — before the scenario folds them
// into a figure. That is what lets an operation be one grid point
// whatever shape the figure has. With a tracer, every Job and Assemble
// also runs inside a span parented to the runner.map span.
type capture struct {
	experiment.Scenario
	results *[]experiment.Point
	tr      *Tracer
	parent  int
}

func (c capture) Jobs() []experiment.Job {
	jobs := c.Scenario.Jobs()
	if c.tr == nil {
		return jobs
	}
	for i, j := range jobs {
		j := j
		jobs[i] = func(ctx *experiment.Ctx) experiment.Point {
			id := c.tr.Start("experiment.job", c.parent)
			defer c.tr.End(id)
			return j(ctx)
		}
	}
	return jobs
}

func (c capture) Assemble(results []experiment.Point) *experiment.Figure {
	*c.results = append([]experiment.Point(nil), results...)
	var fig *experiment.Figure
	timed(c.tr, "experiment.assemble", c.parent, func() { fig = c.Scenario.Assemble(results) })
	return fig
}

// repOutput is what one repetition produced: the figure text, one
// digest per operation, and the operations that failed outright.
type repOutput struct {
	text   string
	ops    []string
	failed int
	errs   []string
	points [][]experiment.Point // per scenario: its job-ordered results
}

func (o *repOutput) digest() string {
	sum := sha256.Sum256([]byte(o.text + "\x00" + strings.Join(o.ops, "\n")))
	return hex.EncodeToString(sum[:])
}

// textSHA is the full SHA-256 of a figure text, as the goldens store it.
func textSHA(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// pointLine renders the modelled-network part of a grid point: quality,
// loss and per-flow / per-class delivery. Event counts, queue geometry,
// shard counts and the other engine telemetry a Point also carries are
// deliberately not read: a change meant only to speed the simulator up
// must leave this line identical, and is free to move those.
func pointLine(p experiment.Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d|%.9g|%.9g|%.9g|%d", p.Label, int64(p.TokenRate), int64(p.Depth),
		p.FrameLoss, p.Quality, p.PacketLoss, p.Calibration)
	for _, f := range p.Flows {
		fmt.Fprintf(&b, "|f:%.9g,%.9g", f.FrameLoss, f.Quality)
	}
	for _, c := range p.Classes {
		fmt.Fprintf(&b, "|c:%s,%d,%d,%d,%d,%d,%.9g,%.9g,%.9g,%.9g", c.Name, c.Flows,
			c.ScheduledPackets, c.ScheduledBytes, c.Packets, c.Bytes,
			c.DelayMeanMs, c.DelayP50Ms, c.DelayP95Ms, c.DelayP99Ms)
	}
	return b.String()
}

// runRep executes one repetition body: every scenario of the workload
// through experiment.RunScenarioOpts and Figure.Format, or — for
// trace-io — the same with a spilled v2 trace per grid point, each
// sealed file then digested and diffed. A panic inside a scenario
// fails all of that scenario's operations.
func (in *inputs) runRep(p *prepared, opts experiment.RunOptions, tr *Tracer, parent int) *repOutput {
	out := &repOutput{}
	for i, s := range p.scenarios {
		jobs := p.jobCounts[i]
		func() {
			defer func() {
				if r := recover(); r != nil {
					out.failed += jobs
					out.errs = append(out.errs, fmt.Sprintf("%s: panic: %v", s.Name(), r))
					for i := 0; i < jobs; i++ {
						out.ops = append(out.ops, "panic")
					}
				}
			}()
			if in.w.traceIO {
				in.runTraced(s, opts, tr, parent, out)
				return
			}
			fig, results := runScenario(s, opts, tr, parent)
			out.text += fig.Format()
			for _, pt := range results {
				out.ops = append(out.ops, shortHash(pointLine(pt)))
			}
			out.points = append(out.points, results)
		}()
	}
	return out
}

// runScenario is one experiment.RunScenarioOpts call, inside a
// runner.map span when tracing.
func runScenario(s experiment.Scenario, opts experiment.RunOptions, tr *Tracer, parent int) (*experiment.Figure, []experiment.Point) {
	mapSpan := -1
	if tr != nil {
		mapSpan = tr.Start("runner.map", parent)
		defer tr.End(mapSpan)
	}
	var results []experiment.Point
	fig := experiment.RunScenarioOpts(capture{s, &results, tr, mapSpan}, opts)
	return fig, results
}

// traceConfig is every traced job's capture: the default 64 Ki-event
// ring in RAM and, on the spill stream, one event in three of every
// kind — about 0.8 M events and 8 MB per sealed file, which sizes a
// trace-io repetition like the other workloads'. Toy runs keep one in
// 64.
func (in *inputs) traceConfig() ptrace.Config {
	if in.toy {
		return ptrace.Config{Sample: 64}
	}
	return ptrace.Config{Sample: 3}
}

// runTraced is the trace-io repetition: run the scenario with a v2
// spill and a digest per grid point into a fresh directory, then read
// every sealed file back — stream-digest it, diff the digest against
// itself and against the stored one — and remove the directory. An
// operation is one sealed trace file.
func (in *inputs) runTraced(s experiment.Scenario, opts experiment.RunOptions, tr *Tracer, parent int, out *repOutput) {
	dir, err := os.MkdirTemp(in.dir, "traces-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	req := &experiment.TraceRequest{Dir: dir, Config: in.traceConfig(),
		Format: "v2", Spill: true, Digest: true}
	opts.Trace = req
	fig, results := runScenario(s, opts, tr, parent)
	out.text += fig.Format()
	out.points = append(out.points, results)
	for _, name := range req.Files() {
		var op string
		timed(tr, "ptrace.read", parent, func() { op, err = checkTraceFile(filepath.Join(dir, name)) })
		if err != nil {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", name, err))
			op = "failed"
		}
		out.ops = append(out.ops, op)
	}
	for i := len(req.Files()); i < len(results); i++ { // a grid point that left no trace
		out.failed++
		out.ops = append(out.ops, "missing")
	}
}

// checkTraceFile reads one sealed trace back: one streaming pass to a
// Summary, a self-diff (must be clean by construction), and a diff
// against the digest the run stored beside it. It returns the digest of
// the stored summary text — packet ids never appear in it.
func checkTraceFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sum, _, err := ptrace.AnalyzeStream(f, 0)
	if err != nil {
		return "", fmt.Errorf("digesting: %w", err)
	}
	if d := ptrace.CompareSummaries(sum, sum, ptrace.Thresholds{}); !d.Clean() {
		return "", fmt.Errorf("summary differs from itself: %d breaches", d.Breaches)
	}
	digestPath := strings.TrimSuffix(path, ".ptrace") + ".digest"
	stored, err := os.ReadFile(digestPath)
	if err != nil {
		return "", err
	}
	golden, err := ptrace.ReadSummary(strings.NewReader(string(stored)))
	if err != nil {
		return "", err
	}
	if d := ptrace.CompareSummaries(sum, golden, ptrace.Thresholds{}); !d.Clean() {
		return "", fmt.Errorf("summary differs from its stored digest: %d breaches", d.Breaches)
	}
	return shortHash(string(stored)), nil
}
