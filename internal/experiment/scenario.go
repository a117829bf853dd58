package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Scenario is a paper experiment decomposed for the runner: a Grid, or
// a spec that produces one (Grid returns it).
//
// Jobs returns one closure per (point, seed), point-major; each builds
// its own simulation, on the storage its worker's Ctx lends, so the
// slice can be executed on any number of goroutines. The runner folds
// each point's seeds in seed order and hands Assemble one result per
// grid point, **in point order**. Because the folds only depend on the
// (deterministic) results and their order, a Scenario produces
// byte-identical output at every parallelism level. Assemble never
// sees telemetry: the runner files it as Figure.Runs, one entry per
// grid point, so a fold that places one result into several series has
// nothing to zero.
type Scenario interface {
	// Name is the registry key, e.g. "fig7".
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Jobs enumerates the independent simulations of the grid.
	Jobs() []Job
	// Assemble folds the per-point results (in point order) into the
	// figure.
	Assemble(results []Point) *Figure
	// Grid is the record the scenario is: the runner reads its seed
	// count, dsbench its thinning rule and shard capability.
	Grid() *Grid
}

// Job is one independent simulation: one grid point at one seed,
// reduced to a Point. Jobs must build their simulation on what the Ctx
// offers (or ignore it and pay the allocations) and call Ctx.Finish
// once: the epilogue is the only way a job reports telemetry or saves a
// trace.
type Job func(ctx *Ctx) Point

// Grid is a scenario as one record: what differs between scenarios is
// what Run builds, Fold's labels and the layout; the seed loop, the
// seed fold, thinning and the shard capability are the record's.
type Grid struct {
	// Key is the registry name ("fig7"); ID and Title head the figure,
	// and XLabel names its first column ("" means "TokenRate").
	Key, ID, Title, XLabel string

	// Points is the number of grid points. Run simulates point i at
	// seed on ctx and reduces it to a Point, calling ctx.Finish once.
	Points int
	Run    func(ctx *Ctx, point int, seed uint64) Point

	// Seed is the first seed; every point runs at Seeds consecutive
	// seeds from it (0 counts as 1), and the runner averages them, as
	// the paper repeated its runs (§4 "there is some variability").
	Seed  uint64
	Seeds int

	// Fold builds the figure's curves from one result per point, in
	// point order.
	Fold func(results []Point) []Series

	// Thin returns the scenario with its x axis thinned to every n-th
	// point, endpoints kept (dsbench -scale); nil leaves the grid whole.
	Thin func(n int) Scenario

	// Shards marks a grid whose points pass Ctx.Shards to their
	// topology and report the effective worker count; dsbench rejects
	// -shards up front for the other grids.
	Shards bool

	// Params is the MultiFlowSpec, FleetSpec or TandemSpec the grid was
	// made from, if any: grids hold funcs, so they compare by Params.
	Params any

	desc   string                              // Describe's line, when it is not Title
	layout func(b *strings.Builder, f *Figure) // see Figure.layout
}

// Name implements Scenario.
func (g *Grid) Name() string { return g.Key }

// Describe implements Scenario.
func (g *Grid) Describe() string {
	if g.desc != "" {
		return g.desc
	}
	return g.Title
}

// Grid implements Scenario.
func (g *Grid) Grid() *Grid { return g }

func (g *Grid) seeds() int { return max(g.Seeds, 1) }

// Jobs implements Scenario: one job per (point, seed), point-major.
func (g *Grid) Jobs() []Job {
	seeds := g.seeds()
	jobs := make([]Job, 0, g.Points*seeds)
	for i := 0; i < g.Points; i++ {
		for k := 0; k < seeds; k++ {
			i, seed := i, g.Seed+uint64(k)
			jobs = append(jobs, func(ctx *Ctx) Point { return g.Run(ctx, i, seed) })
		}
	}
	return jobs
}

// Assemble implements Scenario.
func (g *Grid) Assemble(results []Point) *Figure {
	return &Figure{ID: g.ID, Title: g.Title, XLabel: g.XLabel, Series: g.Fold(results), layout: g.layout}
}

// Scaled returns s with its x axis thinned to every n-th point, or s
// itself when its grid does not thin or n ≤ 1.
func Scaled(s Scenario, n int) Scenario {
	if g := s.Grid(); g.Thin != nil && n > 1 {
		return g.Thin(n)
	}
	return s
}

// byRows chunks point-ordered results row-major into one curve per
// label: the fold of every grid that sweeps one x axis per series.
func byRows(results []Point, labels ...string) []Series {
	out := make([]Series, len(labels))
	cols := len(results) / len(labels)
	for r, l := range labels {
		out[r] = Series{Label: l, Points: append([]Point(nil), results[r*cols:(r+1)*cols]...)}
	}
	return out
}

// Ctx is what the runner hands each job. It is owned by the executing
// worker, and with it the storage that consecutive jobs on that worker
// reuse, so none of it ever crosses goroutines: Sim is the simulator,
// Pool the packet arena and the lender of the ring storage its links,
// queues and senders grow, Eval the evaluation scratch, and Recv the
// receive storage — frame traces, reassembly tables, TCP message lists
// — that the job's receivers borrow and grow (see package client for
// the lending contract). A job hands Sim and Pool to its topology, whose
// builder Resets Sim to the job's seed, so the run is the one a new
// simulator would give. The runner takes Recv's and Pool's loans back
// the moment a job returns, so a job must reduce every frame trace to
// plain values — an Evaluation, a Point — before it does: a
// *trace.Trace kept past the job reads empty, and the storage behind it
// serves the next job. Once the next job has built on the Ctx, nothing
// of the last one's topology is reachable from it. A steady-state job
// therefore allocates no simulator, events, packets, ring or receive
// storage, only what differs from the job before. Trace is the run-wide
// trace request (nil in the common untraced case).
type Ctx struct {
	Sim   *sim.Simulator
	Pool  *packet.Pool
	Eval  Evaluator
	Recv  *client.Scratch
	Trace *TraceRequest

	// Run is the running job's telemetry record, written only by Finish.
	// The runner zeroes it before each job and files it afterwards; a
	// caller that owns its Ctx reads it directly.
	Run RunStats

	// Shards is the intra-run shard count each job should request from
	// its topology (dsbench -shards). Effective workers =
	// min(requested, partitionable batched flows), reported per run.
	// The knob trades cores-per-job against jobs-in-flight. A batched
	// point of at most 1,024 flows runs on the pipeline at any value,
	// and there the value moves work, not output: every nflow-wide
	// point does, and the equivalence harness (equivalence_test.go)
	// pins it over seeds. A larger point runs on the serial walk unless
	// asked for more than one shard, and the two paths can deliver
	// differently: a 16 k-flow fleet run does (see package flowbatch).
	Shards int
}

// RunStats is what the simulator did to run one grid point: engine
// telemetry, never figure output. Label, TokenRate and Depth identify
// the point (the runner copies them from its folded Point); the rest is
// written by Ctx.Finish, once per seed, and folded across the point's
// seeds by the runner.
type RunStats struct {
	Label     string
	TokenRate units.BitRate
	Depth     units.ByteSize

	// Events counts the simulator events executed, border simulator plus
	// shard workers — the denominator of dsbench's events/sec and
	// allocs/event. VFlows is the virtual flows simulated (0 for the
	// single-flow figures).
	Events uint64
	VFlows int
	// Shards is the effective intra-run shard count (1 for serial
	// multi-flow runs, 0 where the topology does not report it), and
	// StallRatio the border goroutine's blocked fraction when sharded:
	// near 0 the border replay dominates, near 1 the shard workers do.
	Shards     int
	StallRatio float64
	// HeapBytes is the process heap in use (HeapAlloc) sampled right
	// after a multi-flow simulation, and RunMS the build + run
	// wall-clock in milliseconds where the job times it (the fleet
	// sweeps, as evidence that wall time grows sublinearly in N). Both
	// are meaningful at -parallel 1, where no other job mixes in.
	HeapBytes uint64
	RunMS     float64
	// Calendar-queue telemetry from the (border) simulator: window
	// rebases performed, the final bucket width (the adaptive policy's
	// converged choice) and the share of schedules that landed in the
	// overflow heap.
	QRebases  uint64
	QWidth    units.Time
	QOverflow float64
	// Ties counts the same-instant orderings the lazy ports of a QBone
	// run could not resolve (topology.QBone.Ties): 0 means the run is
	// the per-packet one, event for event.
	Ties int

	sims int // simulations finished into this record
}

// reclaim takes back what the finished simulation borrowed from the
// Ctx, its receive storage and its ring storage, for the next one.
func (c *Ctx) reclaim() {
	c.Recv.Reset()
	c.Pool.Reset()
}

// NewRecorder returns a bounded packet-trace recorder per the run's
// trace request, or nil when tracing is off — which is exactly the
// nil Tap the topology layer interprets as "disabled". When the
// request asks for spilling, the recorder streams its capture to a
// temporary file in the trace directory as the run progresses;
// Finish seals and renames it into place. When it asks for a digest,
// the recorder digests each event as it encodes it. A spill file that
// cannot be created is filed on the request (TraceRequest.Err) and the
// job runs untraced.
func (c *Ctx) NewRecorder() *ptrace.Recorder {
	if c == nil || c.Trace == nil {
		return nil
	}
	rec := ptrace.NewRecorder(c.Trace.Config)
	if c.Trace.Digest {
		rec.DigestWrites()
	}
	if c.Trace.Spill {
		if err := c.Trace.startSpill(rec); err != nil {
			c.Trace.fail(fmt.Errorf("experiment: trace spill: %w", err))
			return nil
		}
	}
	return rec
}

// Finish is the one epilogue of a simulation: call it right after the
// simulator stops. It seals rec (nil when tracing is off) under the
// trace directory as "<scenario>-<label>.ptrace" and adds the run to
// c.Run (see RunStats.add). start is when the job began building the
// simulation, or zero when it does not time itself; the heap is
// sampled for multi-flow runs only (vflows > 0).
func (c *Ctx) Finish(label string, rec *ptrace.Recorder, s *sim.Simulator, shard topology.ShardStats, vflows int, start time.Time) {
	run := RunStats{Events: s.Fired() + shard.ShardFired, VFlows: vflows, Shards: shard.Shards, StallRatio: shard.StallRatio}
	if !start.IsZero() {
		run.RunMS = float64(time.Since(start).Microseconds()) / 1000
	}
	if rec != nil {
		if err := c.Trace.save(label, rec); err != nil {
			c.Trace.fail(fmt.Errorf("experiment: saving packet trace: %w", err))
		}
	}
	qs := s.QueueStats()
	run.QRebases, run.QWidth, run.QOverflow = qs.Rebases, qs.Width, qs.OverflowRatio()
	if vflows > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		run.HeapBytes = ms.HeapAlloc
	}
	c.Run.add(run)
}

// add folds one simulation's record r into acc, the one rule for
// several simulations finished into one job's record and for a grid
// point's seeds: Events, QRebases, RunMS and Ties sum, StallRatio is the
// running mean, and the rest are r's (HeapBytes where r sampled it).
func (acc *RunStats) add(r RunStats) {
	acc.sims++
	acc.Events += r.Events
	acc.QRebases += r.QRebases
	acc.RunMS += r.RunMS
	acc.Ties += r.Ties
	acc.StallRatio += (r.StallRatio - acc.StallRatio) / float64(acc.sims)
	acc.VFlows, acc.Shards, acc.QWidth, acc.QOverflow = r.VFlows, r.Shards, r.QWidth, r.QOverflow
	if r.HeapBytes != 0 {
		acc.HeapBytes = r.HeapBytes
	}
}

// TraceRequest asks a scenario run to dump per-point packet traces:
// each traced job records into a bounded ptrace.Recorder and writes
// one binary v2 .ptrace file per point into Dir. The request is shared
// by every worker; concurrent saves are safe because every grid point
// labels a distinct file (jobs must include any extra grid dimension
// in the label), and the shared file list is mutex-guarded. Tracing
// never fails a run: a trace that cannot be written is left out, the
// figure is unchanged, and Err reports the first such failure.
type TraceRequest struct {
	Dir    string
	Config ptrace.Config

	// Format is ignored: every trace is binary v2. It stays only for
	// source compatibility with the benchmark harness, which sets it.
	Format string

	// Spill streams every capture-surviving event to disk as the run
	// progresses, unbounded by Config.Capacity: the .ptrace file is the
	// capture, and the recorder keeps no ring in RAM. Sampling
	// (Config.Sample) still applies, which is what keeps a fleet-scale
	// spill file's size in hand.
	Spill bool

	// Digest writes a "<scenario>-<label>.digest" beside every sealed
	// .ptrace — the bounded ptrace.Summary serialized by
	// ptrace.WriteSummary — so a run can be gated against a stored
	// golden with `dstrace -compare-golden`. The recorder folds the
	// digest while it encodes the trace; the file is never read back.
	Digest bool

	scenario string
	mu       sync.Mutex
	files    []string
	spills   map[*ptrace.Recorder]*os.File // open spill files, until save seals and renames them
	err      error
}

// Err reports the first trace-I/O failure of the run, or nil.
func (tr *TraceRequest) Err() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.err
}

// fail files err unless an earlier failure already holds the slot.
func (tr *TraceRequest) fail(err error) {
	tr.mu.Lock()
	if tr.err == nil {
		tr.err = err
	}
	tr.mu.Unlock()
}

// startSpill opens a temporary spill file next to the final trace
// location (same directory, so the sealing rename stays atomic) and
// attaches it to the recorder. The file takes the recorder's writes
// unbuffered: each is one whole block of the trace, or its trailer.
func (tr *TraceRequest) startSpill(rec *ptrace.Recorder) error {
	f, err := os.CreateTemp(tr.Dir, ".spill-*")
	if err != nil {
		return err
	}
	rec.SpillTo(f)
	tr.mu.Lock()
	if tr.spills == nil {
		tr.spills = map[*ptrace.Recorder]*os.File{}
	}
	tr.spills[rec] = f
	tr.mu.Unlock()
	return nil
}

// Files lists the trace files written so far (base names).
func (tr *TraceRequest) Files() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.files...)
}

// sanitizeLabel keeps file names shell-friendly.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// save writes the recorder's capture to its final name atomically:
// the bytes land in a temporary file in the same directory and only an
// os.Rename publishes them, so a crashed or interrupted run never
// leaves a half-written .ptrace that a later dstrace would trip over.
// Spilled recorders already streamed their events; save seals the v2
// trailer and renames the spill file into place. The digest, when
// asked for, is the Summary the recorder folded while it encoded.
func (tr *TraceRequest) save(label string, rec *ptrace.Recorder) error {
	name := sanitizeLabel(tr.scenario + "-" + label + ".ptrace")
	path := filepath.Join(tr.Dir, name)

	tr.mu.Lock()
	f := tr.spills[rec]
	delete(tr.spills, rec)
	tr.mu.Unlock()

	if f != nil {
		err := rec.FinishSpill()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(f.Name(), path)
		}
		if err != nil {
			os.Remove(f.Name())
			return err
		}
	} else {
		err := atomicfile.WriteTo(path, func(w io.Writer) error {
			_, err := rec.WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if tr.Digest {
		digestPath := strings.TrimSuffix(path, ".ptrace") + ".digest"
		err := atomicfile.WriteTo(digestPath, func(w io.Writer) error {
			return ptrace.WriteSummary(w, rec.Summary())
		})
		if err != nil {
			return err
		}
	}
	tr.mu.Lock()
	tr.files = append(tr.files, name)
	tr.mu.Unlock()
	return nil
}

// RunOptions bundles the execution knobs of a scenario run. The
// zero value is the default serial-result configuration: a
// GOMAXPROCS-sized job pool, no tracing, serial (unsharded) jobs.
type RunOptions struct {
	// Parallel is the job-pool size (<= 0 means GOMAXPROCS, 1 strictly
	// serial).
	Parallel int
	// Trace requests per-point packet traces.
	Trace *TraceRequest
	// Shards asks each job to run its simulation on the intra-run
	// sharded pipeline with up to this many shard workers (see
	// Ctx.Shards for what the value does and does not change).
	Shards int
}

// RunScenarioOpts executes the scenario's jobs under the given
// options, folds each grid point's seeds in seed order, files each
// point's telemetry as Figure.Runs in point order, and assembles the
// figure. This is the single execution path for every figure:
// parallelism level and tracing never change the assembled series.
// Seeds after a point's first run untraced: one representative capture
// per grid point keeps -trace output proportional to the figure, not to
// the seed count.
func RunScenarioOpts(s Scenario, opts RunOptions) *Figure {
	if tr := opts.Trace; tr != nil {
		tr.scenario = s.Name()
		if err := os.MkdirAll(tr.Dir, 0o755); err != nil {
			tr.fail(fmt.Errorf("experiment: trace dir %s: %w", tr.Dir, err))
			opts.Trace = nil
		}
	}
	seeds := s.Grid().seeds()
	jobs := s.Jobs()
	runs := make([]RunStats, len(jobs))
	fns := make([]func(*Ctx) Point, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		fns[i] = func(ctx *Ctx) Point {
			ctx.Run = RunStats{}
			if i%seeds != 0 {
				ctx.Trace = nil
			}
			p := j(ctx)
			ctx.Trace = opts.Trace
			ctx.reclaim()
			runs[i] = ctx.Run
			return p
		}
	}
	newCtx := func() *Ctx {
		return &Ctx{Sim: sim.New(0), Pool: packet.NewPool(), Recv: new(client.Scratch),
			Trace: opts.Trace, Shards: opts.Shards}
	}
	points, runs := foldSeeds(runner.MapArena(opts.Parallel, newCtx, fns), runs, seeds)
	fig := s.Assemble(points)
	fig.Runs = runs
	return fig
}

// foldSeeds folds each run of seeds consecutive results — one grid
// point's seeds, in seed order — into one Point and one RunStats, in
// place, and labels each RunStats with its point. One seed keeps its
// Point and RunStats verbatim.
func foldSeeds(results []Point, runs []RunStats, seeds int) ([]Point, []RunStats) {
	if seeds > 1 {
		n := len(results) / seeds
		for i := 0; i < n; i++ {
			results[i] = meanPoint(results[i*seeds : (i+1)*seeds])
			var acc RunStats
			for _, r := range runs[i*seeds : (i+1)*seeds] {
				acc.add(r)
			}
			runs[i] = acc
		}
		results, runs = results[:n], runs[:n]
	}
	for i, p := range results {
		runs[i].Label, runs[i].TokenRate, runs[i].Depth = p.Label, p.TokenRate, p.Depth
	}
	return results, runs
}

// meanPoint averages one grid point's per-seed results: FrameLoss,
// Quality and PacketLoss are summed in seed order and divided by the
// count, Calibration is summed, TokenRate and Depth are the point's,
// and every other column is zero. A single result is kept verbatim.
func meanPoint(ps []Point) Point {
	if len(ps) == 1 {
		return ps[0]
	}
	acc := Point{TokenRate: ps[0].TokenRate, Depth: ps[0].Depth}
	for _, p := range ps {
		acc.FrameLoss += p.FrameLoss
		acc.Quality += p.Quality
		acc.PacketLoss += p.PacketLoss
		acc.Calibration += p.Calibration
	}
	acc.FrameLoss /= float64(len(ps))
	acc.Quality /= float64(len(ps))
	acc.PacketLoss /= float64(len(ps))
	return acc
}

// The scenario registry. This package's inits register the presets
// (figures.go) and nothing writes it afterwards; a command that compiles
// a scenario at run time keeps it beside the registry and passes it to
// Names and Scenarios as an extra.
var registry = map[string]Scenario{}

// register adds a scenario under its Name. Registering an empty or
// duplicate name panics: both are wiring bugs worth failing loudly on.
func register(s Scenario) {
	name := s.Name()
	if name == "" {
		panic("experiment: register with empty scenario name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: duplicate scenario %q", name))
	}
	registry[name] = s
}

// Lookup returns the scenario registered under name, or nil.
func Lookup(name string) Scenario {
	return registry[name]
}

// Names lists the registered scenario names and those of extra in
// natural order: "fig7" sorts before "fig10", so listings read in paper
// order. No extra may share a registered name.
func Names(extra ...Scenario) []string {
	out := make([]string, 0, len(registry)+len(extra))
	for n := range registry {
		out = append(out, n)
	}
	for _, s := range extra {
		out = append(out, s.Name())
	}
	sort.Slice(out, func(i, j int) bool { return naturalLess(out[i], out[j]) })
	return out
}

// naturalLess compares names numerically where both share a leading
// alphabetic prefix with a trailing integer ("fig7" < "fig10").
func naturalLess(a, b string) bool {
	pa, na, oka := splitTrailingInt(a)
	pb, nb, okb := splitTrailingInt(b)
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

func splitTrailingInt(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n, true
}

// Scenarios returns the registered scenarios and extra in listing
// order: by name as Names sorts them, except that the ablations come
// last, in their own order.
func Scenarios(extra ...Scenario) []Scenario {
	var out []Scenario
	for _, n := range Names(extra...) {
		if slices.ContainsFunc(ablations, func(a Scenario) bool { return a.Name() == n }) {
			continue
		}
		s := Lookup(n)
		if s == nil {
			s = extra[slices.IndexFunc(extra, func(e Scenario) bool { return e.Name() == n })]
		}
		out = append(out, s)
	}
	return append(out, ablations...)
}
