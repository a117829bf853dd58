package experiment

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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

// Scenario is a paper experiment decomposed for the runner: a figure
// (or figure family) whose points are independent simulation jobs.
//
// Jobs returns one closure per point of the figure grid; each closure
// builds its own simulation, on the storage its worker's Ctx lends, so
// the slice can be executed on any number of goroutines. Assemble
// receives the results **in job order** — results[i] is what Jobs()[i]
// returned — and folds them back into the figure. Because the fold
// only depends on the (deterministic) results
// and their order, a Scenario produces byte-identical output at every
// parallelism level. Assemble never sees telemetry: what the simulator
// did is filed by the runner as Figure.Runs, one entry per job, so a
// fold that places one result into several series has nothing to zero.
type Scenario interface {
	// Name is the registry key, e.g. "fig7".
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Jobs enumerates the independent simulation jobs of the grid.
	Jobs() []Job
	// Assemble folds job results (ordered by job index) into the figure.
	Assemble(results []Point) *Figure
}

// Job is one independent simulation: it runs a full (possibly
// seed-averaged) experiment and reduces it to a Point. Jobs must build
// their simulation on what the Ctx offers (or ignore it and pay the
// allocations) and call Ctx.Finish once per simulation: the epilogue is
// the only way a job reports telemetry or saves a trace.
type Job func(ctx *Ctx) Point

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
// the moment a job returns (a seed-averaged job does so itself between
// seeds), so a job must reduce every frame trace to plain values — an
// Evaluation, a Point — before it does: a *trace.Trace kept past the
// job reads empty, and the storage behind it serves the next grid
// point. Once the next job has built on the Ctx, nothing of the last
// one's topology is reachable from it. A steady-state job therefore
// allocates no simulator, events, packets, ring or receive storage, only
// what differs from the point before. Trace is the run-wide trace
// request (nil in the common untraced case).
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
	// min(requested, partitionable batched flows), reported per run;
	// the assembled figure is byte-identical at any value (the shardeq
	// harness pins this), so the knob trades cores-per-job against
	// jobs-in-flight without touching results.
	Shards int
}

// RunStats is what the simulator did to run one job: engine telemetry,
// never figure output. Label, TokenRate and Depth identify the job (the
// runner copies them from the job's Point); the rest is written by
// Ctx.Finish.
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
// trace directory as "<scenario>-<label>.ptrace" and records the run
// in c.Run. A seed-averaged job finishes several simulations into the
// same record: Events, QRebases and RunMS sum, StallRatio is the mean,
// and the rest are last-run samples. start is when the job began
// building the simulation, or zero when it does not time itself; the
// heap is sampled for multi-flow runs only (vflows > 0).
func (c *Ctx) Finish(label string, rec *ptrace.Recorder, s *sim.Simulator, shard topology.ShardStats, vflows int, start time.Time) {
	r := &c.Run
	if !start.IsZero() {
		r.RunMS += float64(time.Since(start).Microseconds()) / 1000
	}
	if rec != nil {
		if err := c.Trace.save(label, rec); err != nil {
			c.Trace.fail(fmt.Errorf("experiment: saving packet trace: %w", err))
		}
	}
	r.sims++
	r.Events += s.Fired() + shard.ShardFired
	r.VFlows, r.Shards = vflows, shard.Shards
	r.StallRatio += (shard.StallRatio - r.StallRatio) / float64(r.sims)
	qs := s.QueueStats()
	r.QRebases += qs.Rebases
	r.QWidth, r.QOverflow = qs.Width, qs.OverflowRatio()
	if vflows > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.HeapBytes = ms.HeapAlloc
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
	spills   map[*ptrace.Recorder]*spillState
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

// spillState is one recorder's open spill file, held until Finish
// seals and renames it.
type spillState struct {
	f  *os.File
	bw *bufio.Writer
}

// startSpill opens a temporary spill file next to the final trace
// location (same directory, so the sealing rename stays atomic) and
// attaches it to the recorder.
func (tr *TraceRequest) startSpill(rec *ptrace.Recorder) error {
	f, err := os.CreateTemp(tr.Dir, ".spill-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	rec.SpillTo(bw)
	tr.mu.Lock()
	if tr.spills == nil {
		tr.spills = map[*ptrace.Recorder]*spillState{}
	}
	tr.spills[rec] = &spillState{f: f, bw: bw}
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
	sp := tr.spills[rec]
	delete(tr.spills, rec)
	tr.mu.Unlock()

	if sp != nil {
		err := rec.FinishSpill()
		if ferr := sp.bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := sp.f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(sp.f.Name(), path)
		}
		if err != nil {
			os.Remove(sp.f.Name())
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

// Scalable is implemented by scenarios whose token sweep can be
// thinned for quick passes (dsbench -scale).
type Scalable interface {
	Scenario
	// Scaled returns a copy keeping every n-th token-sweep point.
	Scaled(n int) Scenario
}

// ShardCapable is implemented by scenarios whose jobs accept the
// intra-run shard knob (RunOptions.Shards / dsbench -shards):
// effective workers = min(requested, partitionable batched flows),
// reported per run. A capable scenario's unbatched points have no
// partitionable flows and report one worker; scenarios without the
// method cannot report it at all, so dsbench rejects -shards for them
// up front.
type ShardCapable interface {
	Scenario
	// SupportsShards reports whether the scenario's jobs pass
	// Ctx.Shards to their topology and report the effective count.
	SupportsShards() bool
}

// SupportsSharding reports whether s honors the intra-run shard knob.
func SupportsSharding(s Scenario) bool {
	sc, ok := s.(ShardCapable)
	return ok && sc.SupportsShards()
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
	// Ctx.Shards). Results are byte-identical at any value.
	Shards int
}

// RunScenarioOpts executes the scenario's jobs under the given
// options, files each job's telemetry as Figure.Runs in job order, and
// assembles the figure. This is the single execution path for every
// figure: parallelism level, tracing, and intra-run sharding never
// change the assembled series.
func RunScenarioOpts(s Scenario, opts RunOptions) *Figure {
	if tr := opts.Trace; tr != nil {
		tr.scenario = s.Name()
		if err := os.MkdirAll(tr.Dir, 0o755); err != nil {
			tr.fail(fmt.Errorf("experiment: trace dir %s: %w", tr.Dir, err))
			opts.Trace = nil
		}
	}
	jobs := s.Jobs()
	runs := make([]RunStats, len(jobs))
	fns := make([]func(*Ctx) Point, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		fns[i] = func(ctx *Ctx) Point {
			ctx.Run = RunStats{}
			p := j(ctx)
			ctx.reclaim()
			runs[i] = ctx.Run
			runs[i].Label, runs[i].TokenRate, runs[i].Depth = p.Label, p.TokenRate, p.Depth
			return p
		}
	}
	newCtx := func() *Ctx {
		return &Ctx{Sim: sim.New(0), Pool: packet.NewPool(), Recv: new(client.Scratch),
			Trace: opts.Trace, Shards: opts.Shards}
	}
	fig := s.Assemble(runner.MapArena(opts.Parallel, newCtx, fns))
	fig.Runs = runs
	return fig
}

// The scenario registry. Scenarios register at init time (figures.go);
// commands list and select them by name.
var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario under its Name. Registering an empty or
// duplicate name panics: both are wiring bugs worth failing loudly on.
func Register(s Scenario) {
	name := s.Name()
	if name == "" {
		panic("experiment: Register with empty scenario name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: duplicate scenario %q", name))
	}
	registry[name] = s
}

// Lookup returns the scenario registered under name, or nil.
func Lookup(name string) Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name]
}

// Names lists the registered scenario names in natural order: "fig7"
// sorts before "fig10", so listings read in paper order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
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

// Scenarios returns the registered scenarios in listing order: by
// name as Names sorts them, except that the ablations come last, in
// their own order.
func Scenarios() []Scenario {
	var out []Scenario
	for _, n := range Names() {
		if _, last := Lookup(n).(ablation); !last {
			out = append(out, Lookup(n))
		}
	}
	return append(out, ablations...)
}
