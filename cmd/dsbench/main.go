// Command dsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsbench -list
//	dsbench -run all
//	dsbench -run fig7,fig15,table2
//	dsbench -scenario fig9            # one registered scenario
//	dsbench -parallel 8               # worker-pool size (0 = all cores)
//	dsbench -shards 4                 # intra-run sharding per simulation
//	dsbench -scale 4                  # thin token sweeps for a quick pass
//	dsbench -json BENCH.json          # machine-readable scenario results
//	dsbench -scenario tandem -trace traces/   # dump per-point packet traces
//	dsbench -scenario-file dumbbell.scenario.json   # compile + run a config-file scenario
//
// With -json - the JSON document is all of stdout; the figure text
// goes to stderr. -list takes no flag but -scenario-file: a flag only
// a run reads exits 2 naming it. dsbench takes no positional argument:
// "dsbench fig7" exits 2 naming fig7 instead of running everything.
//
// With -trace DIR every scenario point writes a bounded packet-level
// trace (<scenario>-<point>.ptrace) that cmd/dstrace summarizes.
// Tracing is pure observation: figure output is byte-identical with
// and without it. -trace-cap/-trace-head/-trace-sample bound each
// capture; -trace-verdicts restricts it to conditioner verdicts,
// drops and deliveries so the bound covers the whole run. Every trace
// is in the binary v2 encoding (internal/ptrace); -trace-spill streams
// the complete filtered capture to disk during the run, unbounded by
// -trace-cap (sampling still applies, so -trace-sample bounds the file
// size); the file is then the capture, and no ring is kept in RAM.
// -trace-cap together with -trace-spill exits 2, and so does a
// -trace-head above the -trace-cap of a ring capture (a spilled one
// pins every -trace-head event).
// -trace-digest additionally writes a <point>.digest behavioral
// summary beside each sealed trace, the currency of the `dstrace
// -compare-golden` gate, folded while the trace is written. Any
// -trace-* flag without -trace DIR exits 2 naming it, and so does
// -trace with only static artifacts (tables, fig6) selected. Trace files
// are written atomically (temp file + rename), so an interrupted run
// never leaves a torn .ptrace; DIR is probed for writability before
// any job starts, and an unwritable one exits 2 naming the path. A
// trace that still fails to write mid-run leaves the figure intact:
// dsbench prints it, names the failed path and exits 1.
//
// Figure scenarios come from the experiment scenario registry and are
// executed on the deterministic runner pool: -parallel changes only
// wall-clock time, never a byte of output. -scenario-file compiles a
// JSON scenario file (internal/scenfile) beside the registry, not into
// it: the file's scenario joins this invocation's artifact table at
// its listing position and runs under the identical contract — -shards
// is honored when the file's declared capabilities allow it and
// rejected up front otherwise. A file may not reuse a registered name.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/experiment"
	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/scenfile"
	"repro/internal/units"
	"repro/internal/video"
)

// options is one invocation's run settings, read from its flags. The
// artifacts run under it, and scenario artifacts append their -json
// records to it.
type options struct {
	scale int // token-sweep thinning factor (-scale)
	plot  bool
	// parallel is the worker-pool size; 0 means GOMAXPROCS.
	parallel int
	// shards is the requested shard workers per simulation: effective
	// workers = min(requested, partitionable batched flows), reported
	// per run. Output equals -shards 1 only on the grids the equivalence
	// harness pins (see experiment.Ctx.Shards), and scenarios that
	// declare no shard capability are refused up front.
	shards int
	// jsonPath, when set, makes scenario artifacts collect records
	// (points, wall time, parallelism) that run writes out at the end,
	// so BENCH_*.json perf trajectories can accumulate across runs.
	jsonPath string
	records  []scenarioRecord
	// traceDir, when set, makes every scenario artifact dump per-point
	// packet traces shaped by traceCfg; traceSpill streams complete
	// captures during the run, and traceDigest writes a behavioral
	// .digest beside each sealed trace.
	traceDir    string
	traceCfg    ptrace.Config
	traceSpill  bool
	traceDigest bool
}

// artifact is one entry of the table -list prints: a static table or
// figure that text renders, or a scenario that the runner pool runs.
type artifact struct {
	name     string
	desc     string
	text     func(scale int) string
	scenario experiment.Scenario
}

type jsonPoint struct {
	TokenRateBps float64 `json:"token_rate_bps"`
	DepthBytes   int64   `json:"depth_bytes"`
	Label        string  `json:"label,omitempty"`
	FrameLoss    float64 `json:"frame_loss"`
	Quality      float64 `json:"quality"`
	PacketLoss   float64 `json:"packet_loss"`
	// Classes carries the per-equivalence-class aggregated statistics
	// of mixture points (aggregated-stats mode).
	Classes []experiment.ClassStat `json:"classes,omitempty"`
	// The ablation columns, on the points that measure them: ef-service's
	// EF delay statistics (seconds) and abl-af's srTCM colour counts.
	DelayMeanS float64 `json:"delay_mean_s,omitempty"`
	DelayP99S  float64 `json:"delay_p99_s,omitempty"`
	JitterS    float64 `json:"jitter_s,omitempty"`
	ColorsGYR  *[3]int `json:"colors_gyr,omitempty"`
}

// jsonRun is one job's engine telemetry — an experiment.RunStats, which
// documents the fields — once per simulation job, in job order: apart
// from the series, where one job's result may appear on several curves.
// BytesPerVFlow = PeakHeapBytes / VirtualFlows is derived here: the
// fleet sweeps record it staying ~flat as N grows into six figures.
type jsonRun struct {
	TokenRateBps       float64 `json:"token_rate_bps"`
	DepthBytes         int64   `json:"depth_bytes"`
	Label              string  `json:"label,omitempty"`
	Events             uint64  `json:"events,omitempty"`
	VirtualFlows       int     `json:"virtual_flows,omitempty"`
	Shards             int     `json:"shards,omitempty"`
	ShardStallRatio    float64 `json:"shard_stall_ratio,omitempty"`
	PeakHeapBytes      uint64  `json:"peak_heap_bytes,omitempty"`
	BytesPerVFlow      float64 `json:"bytes_per_vflow,omitempty"`
	RunMS              float64 `json:"run_ms,omitempty"`
	QueueRebases       uint64  `json:"queue_rebases,omitempty"`
	QueueWidthUS       float64 `json:"queue_width_us,omitempty"`
	QueueOverflowRatio float64 `json:"queue_overflow_ratio,omitempty"`
	Ties               int     `json:"ties,omitempty"`
}

type jsonSeries struct {
	Label  string      `json:"label"`
	Points []jsonPoint `json:"points"`
}

type scenarioRecord struct {
	Name     string `json:"name"`
	Title    string `json:"title"`
	Parallel int    `json:"parallel"`
	Scale    int    `json:"scale"`
	// Shards is the requested intra-run shard count (-shards);
	// ShardStallRatio averages the border stall fractions of the jobs
	// that actually ran sharded.
	Shards          int     `json:"shards,omitempty"`
	ShardStallRatio float64 `json:"shard_stall_ratio,omitempty"`
	WallMS          float64 `json:"wall_ms"`
	// Events is the total simulator events executed across every job of
	// the scenario; EventsPerSec = Events / wall time is the
	// throughput number the perf trajectory tracks, and AllocsPerEvent
	// is the process-wide heap allocations attributed to each event —
	// the pooled hot paths drive it toward zero.
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// VirtualFlows totals the flows simulated across the scenario;
	// EventsPerVFlow = Events / VirtualFlows is the per-flow cost the
	// batched sources drive down as aggregates widen.
	VirtualFlows   int          `json:"virtual_flows,omitempty"`
	EventsPerVFlow float64      `json:"events_per_vflow,omitempty"`
	Series         []jsonSeries `json:"series"`
	// Runs is the per-job telemetry, in job order; the scenario-level
	// totals above are sums over it.
	Runs []jsonRun `json:"runs"`
}

func makeRecord(o *options, name string, fig *experiment.Figure, wall time.Duration, allocs uint64) scenarioRecord {
	rec := scenarioRecord{
		Name: name, Title: fig.Title, Parallel: o.parallel, Scale: o.scale,
		Shards: o.shards,
		WallMS: float64(wall.Microseconds()) / 1000,
	}
	for _, s := range fig.Series {
		js := jsonSeries{Label: s.Label}
		for _, p := range s.Points {
			jp := jsonPoint{
				TokenRateBps: float64(p.TokenRate), DepthBytes: int64(p.Depth),
				Label: p.Label, FrameLoss: p.FrameLoss, Quality: p.Quality,
				PacketLoss: p.PacketLoss, Classes: p.Classes,
				DelayMeanS: p.DelayMean, DelayP99S: p.DelayP99, JitterS: p.Jitter,
			}
			if p.Green+p.Yellow+p.Red > 0 {
				jp.ColorsGYR = &[3]int{p.Green, p.Yellow, p.Red}
			}
			js.Points = append(js.Points, jp)
		}
		rec.Series = append(rec.Series, js)
	}
	var stallSum float64
	var stallN int
	for _, r := range fig.Runs {
		rec.Events += r.Events
		rec.VirtualFlows += r.VFlows
		if r.Shards > 1 {
			stallSum += r.StallRatio
			stallN++
		}
		jr := jsonRun{
			TokenRateBps: float64(r.TokenRate), DepthBytes: int64(r.Depth), Label: r.Label,
			Events: r.Events, VirtualFlows: r.VFlows,
			Shards: r.Shards, ShardStallRatio: r.StallRatio,
			PeakHeapBytes: r.HeapBytes, RunMS: r.RunMS,
			QueueRebases:       r.QRebases,
			QueueWidthUS:       float64(r.QWidth) / float64(units.Microsecond),
			QueueOverflowRatio: r.QOverflow,
			Ties:               r.Ties,
		}
		if r.VFlows > 0 && r.HeapBytes > 0 {
			jr.BytesPerVFlow = float64(r.HeapBytes) / float64(r.VFlows)
		}
		rec.Runs = append(rec.Runs, jr)
	}
	if stallN > 0 {
		rec.ShardStallRatio = stallSum / float64(stallN)
	}
	if secs := wall.Seconds(); secs > 0 {
		rec.EventsPerSec = float64(rec.Events) / secs
	}
	if rec.Events > 0 {
		rec.AllocsPerEvent = float64(allocs) / float64(rec.Events)
	}
	if rec.VirtualFlows > 0 {
		rec.EventsPerVFlow = float64(rec.Events) / float64(rec.VirtualFlows)
	}
	return rec
}

// writeJSON dumps the collected records to o.jsonPath ("-" means
// stdout).
func writeJSON(o *options, stdout io.Writer) error {
	out := struct {
		Parallel  int              `json:"parallel"`
		Scenarios []scenarioRecord `json:"scenarios"`
	}{Parallel: o.parallel, Scenarios: o.records}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.jsonPath == "-" {
		_, err = stdout.Write(data)
		return err
	}
	// Atomic like every other artifact: a reader polling for the
	// trajectory file never observes a torn JSON document.
	return atomicfile.WriteFile(o.jsonPath, data)
}

// runArtifact renders one artifact under o. A scenario runs on the
// deterministic runner pool and, with -json, appends its record to o.
// The error is a trace that failed to write mid-run; the figure text
// comes back intact beside it.
func runArtifact(a artifact, o *options) (string, error) {
	if a.scenario == nil {
		return a.text(o.scale), nil
	}
	sc := experiment.Scaled(a.scenario, o.scale)
	var msBefore runtime.MemStats
	if o.jsonPath != "" {
		runtime.ReadMemStats(&msBefore)
	}
	var tr *experiment.TraceRequest
	if o.traceDir != "" {
		tr = &experiment.TraceRequest{Dir: o.traceDir, Config: o.traceCfg,
			Spill: o.traceSpill, Digest: o.traceDigest}
	}
	start := time.Now()
	fig := experiment.RunScenarioOpts(sc, experiment.RunOptions{
		Parallel: o.parallel, Trace: tr, Shards: o.shards,
	})
	wall := time.Since(start)
	if o.jsonPath != "" {
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		o.records = append(o.records, makeRecord(o, sc.Name(), fig, wall, msAfter.Mallocs-msBefore.Mallocs))
	}
	out := fig.Format()
	if o.plot {
		if plot := fig.Plot(64, 16, false); plot != "" {
			out += "\n" + plot
		}
	}
	if tr != nil {
		if err := tr.Err(); err != nil {
			return out, err
		}
		out += fmt.Sprintf("\n[%d packet traces written to %s]\n", len(tr.Files()), o.traceDir)
	}
	return out, nil
}

// artifacts is the artifact table: the static tables and figures, then
// scenarios, which experiment.Scenarios lists in order: fig7 … fig16
// and the scaling scenarios, then the ablations.
func artifacts(scenarios []experiment.Scenario) []artifact {
	all := []artifact{
		{"table1", "Frame Relay interface configuration", func(int) string {
			var b strings.Builder
			b.WriteString("Table 1 — Frame Relay interface configuration\n")
			fmt.Fprintf(&b, "%-14s %-10s %-10s %-6s %-6s\n", "Interface", "CIR", "Bc", "Be", "Type")
			for _, c := range link.Table1() {
				fmt.Fprintf(&b, "%-14s %-10.0f %-10d %-6d %-6s\n", c.Name, float64(c.CIR), c.Bc, c.Be, c.Kind)
			}
			return b.String()
		}, nil},
		{"table2", "MPEG encoding properties of Lost and Dark", func(int) string {
			return video.FormatTable2("Lost", video.Table2(video.Lost())) + "\n" +
				video.FormatTable2("Dark", video.Table2(video.Dark()))
		}, nil},
		{"table3", "Windows Media encoded clip properties", func(int) string {
			return video.FormatTable3([]video.WMVRow{
				video.Table3(video.Lost()), video.Table3(video.Dark()),
			})
		}, nil},
		{"table4", "Summary of experimental configurations", func(int) string {
			return experiment.Table4()
		}, nil},
		{"fig6", "Instantaneous transmission rates of the MPEG clips", func(scale int) string {
			every := 31 * scale
			return experiment.Figure6(video.Lost(), every) + "\n" + experiment.Figure6(video.Dark(), every)
		}, nil},
	}
	for _, s := range scenarios {
		all = append(all, artifact{name: s.Name(), desc: s.Describe(), scenario: s})
	}
	return all
}

// rejectUnshardable refuses -shards > 1 when a selected scenario's jobs
// would silently ignore it. Only the artifacts actually selected are
// checked, so e.g. `-run nflow-fleet -shards 4` never trips over fig7;
// the error suggests the shard-capable scenarios among all.
func rejectUnshardable(shards int, selected, all []artifact) error {
	if shards <= 1 {
		return nil
	}
	var bad, capable []string
	for _, a := range selected {
		if a.scenario != nil && !a.scenario.Grid().Shards {
			bad = append(bad, a.name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	for _, a := range all {
		if a.scenario != nil && a.scenario.Grid().Shards {
			capable = append(capable, a.name)
		}
	}
	return fmt.Errorf("-shards %d is not supported by: %s (these scenarios run single-simulator jobs; drop -shards or select shard-capable scenarios such as %s)",
		shards, strings.Join(bad, ", "), strings.Join(capable, ", "))
}

// validateRunFlags rejects integer flag values a run would otherwise
// silently rewrite: ptrace turns a non-positive -trace-cap into its own
// 65536 default and clamps a negative -trace-head / -trace-sample, a
// negative -shards or -parallel runs serially or on all cores, a -scale
// below 1 empties the sweep, and a negative -trace-flow would mean
// "every flow" like 0 does, and a -trace-flow past the largest flow id
// would wrap onto a small one. The error names the flag and the value.
func validateRunFlags(parallel, shards, scale, traceCap, traceHead, traceSample, traceFlow int) error {
	for _, f := range []struct {
		name   string
		n, min int
	}{
		{"parallel", parallel, 0},
		{"shards", shards, 1},
		{"scale", scale, 1},
		{"trace-cap", traceCap, 1},
		{"trace-head", traceHead, 0},
		{"trace-sample", traceSample, 1},
		{"trace-flow", traceFlow, 0},
	} {
		if f.n < f.min {
			return fmt.Errorf("-%s must be >= %d, got %d", f.name, f.min, f.n)
		}
	}
	if uint64(traceFlow) > math.MaxUint32 {
		return fmt.Errorf("-trace-flow must be <= %d (the largest flow id), got %d", uint64(math.MaxUint32), traceFlow)
	}
	return nil
}

// probeTraceDir checks, before any job starts, that -trace DIR can be
// created and written through the same publish path the point runners
// use — an unwritable directory is a usage error naming the path, not a
// panic from whichever job saves its trace first.
func probeTraceDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-trace %s: %w", dir, err)
	}
	probe := filepath.Join(dir, ".dsbench-probe")
	if err := atomicfile.WriteFile(probe, nil); err != nil {
		return fmt.Errorf("-trace %s: directory is not writable: %w", dir, err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("-trace %s: %w", dir, err)
	}
	return nil
}

// probeJSONPath checks, before any job starts, that -json PATH can be
// published: PATH is not a directory, and its directory takes a file
// through the same publish path writeJSON uses. Without it an
// unwritable PATH failed only after every job had run. "-" is stdout
// and needs no probe.
func probeJSONPath(path string) error {
	if path == "-" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("-json %s: is a directory", path)
	}
	probe := filepath.Join(filepath.Dir(path), ".dsbench-probe")
	if err := atomicfile.WriteFile(probe, nil); err != nil {
		return fmt.Errorf("-json %s: cannot write into its directory: %w", path, err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("-json %s: %w", path, err)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the whole flag
// contract is testable in-process (the same pattern dsstream, dstrace
// and vqmtool use). It returns the process exit code: 0 success, 1 a
// trace or -json write that failed after the run, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available artifacts")
	runNames := fs.String("run", "all", "comma-separated artifact names, or 'all'")
	scenario := fs.String("scenario", "", "run one registered scenario by name (see -list)")
	scenarioFile := fs.String("scenario-file", "",
		"compile a JSON scenario file (see internal/scenfile) into the artifact table; runs it unless -run/-scenario selects otherwise")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = all cores, 1 = serial)")
	shards := fs.Int("shards", 1,
		"requested intra-run shard workers per simulation; effective workers = min(requested, partitionable batched flows), reported per run (output can differ from -shards 1 on large batched points)")
	scale := fs.Int("scale", 1, "token-sweep thinning factor (1 = full resolution)")
	plot := fs.Bool("plot", false, "render figures as ASCII charts too")
	jsonPath := fs.String("json", "", "write per-scenario results as JSON to this file (\"-\" = stdout, the figure text then goes to stderr)")
	trace := fs.String("trace", "", "write per-point packet traces (.ptrace) into this directory")
	traceCap := fs.Int("trace-cap", 1<<17, "max events retained per trace")
	traceHead := fs.Int("trace-head", 4096, "events pinned from the start of each run")
	traceSample := fs.Int("trace-sample", 1, "keep 1 event in N after the head fills")
	traceVerdicts := fs.Bool("trace-verdicts", false,
		"capture only conditioner verdicts, drops, deliveries and TCP events")
	traceFlow := fs.Int("trace-flow", 0, "capture only this flow id (0 = every flow)")
	traceSpill := fs.Bool("trace-spill", false,
		"stream the complete filtered capture to disk during the run, unbounded by -trace-cap; the file is the capture and no ring is kept in RAM")
	traceDigest := fs.Bool("trace-digest", false,
		"write a behavioral .digest beside each sealed trace (requires -trace; input to dstrace -compare-golden)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// dsbench reads no positional argument: "dsbench fig7" would
	// otherwise run every artifact.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: dsbench takes flags only (to run one artifact: -run %s)\n", fs.Arg(0), fs.Arg(0))
		return 2
	}
	// explicit records which flags the user actually set, so defaults
	// and deliberate choices can be told apart. Visit goes in
	// alphabetical order, so misplaced and traceFlag name the first
	// offender: a flag -list does not read (it reads none but
	// -scenario-file), and a -trace-* flag, which without -trace DIR
	// would shape no trace and leave the run silently untraced.
	explicit, misplaced, traceFlag := map[string]bool{}, "", ""
	fs.Visit(func(fl *flag.Flag) {
		explicit[fl.Name] = true
		if *list && misplaced == "" && fl.Name != "list" && fl.Name != "scenario-file" {
			misplaced = fl.Name
		}
		if traceFlag == "" && strings.HasPrefix(fl.Name, "trace-") {
			traceFlag = fl.Name
		}
	})
	usage := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if misplaced != "" {
		return usage(fmt.Errorf("-%s does not apply to -list", misplaced))
	}
	if err := validateRunFlags(*parallel, *shards, *scale, *traceCap, *traceHead, *traceSample, *traceFlow); err != nil {
		return usage(err)
	}
	// -scenario and -run both select what runs; neither may silently win.
	if explicit["scenario"] && explicit["run"] {
		return usage(errors.New("-scenario and -run both select what to run; give one of them"))
	}
	if traceFlag != "" && *trace == "" {
		return usage(fmt.Errorf("-%s requires -trace DIR (it shapes the traces written there)", traceFlag))
	}
	// Two trace settings ptrace would otherwise rewrite: a ring capture
	// pins its head inside the cap, so one above the cap is clamped to
	// it, and a spilled capture is the whole filtered run, so the cap
	// bounds nothing (nor its head).
	if explicit["trace-head"] && !*traceSpill && *traceHead > *traceCap {
		return usage(fmt.Errorf("-trace-head %d exceeds the %d-event capture (-trace-cap) it is pinned in", *traceHead, *traceCap))
	}
	if explicit["trace-cap"] && *traceSpill {
		return usage(errors.New("-trace-cap does not bound a -trace-spill capture (the file is the whole filtered run); bound it with -trace-sample or drop -trace-cap"))
	}
	o := &options{
		scale: *scale, plot: *plot, parallel: *parallel, shards: *shards,
		jsonPath: *jsonPath, traceDir: *trace,
		traceCfg:   ptrace.Config{Capacity: *traceCap, Head: *traceHead, Sample: *traceSample},
		traceSpill: *traceSpill, traceDigest: *traceDigest,
	}
	if *traceVerdicts {
		o.traceCfg.Kinds = ptrace.VerdictKinds()
	}
	if *traceFlow > 0 {
		o.traceCfg.Flows = []packet.FlowID{packet.FlowID(*traceFlow)}
	}
	// A scenario file is compiled beside the registry, never into it:
	// it joins this invocation's artifact table at its listing position.
	var extra []experiment.Scenario
	if *scenarioFile != "" {
		s, err := scenfile.LoadScenario(*scenarioFile)
		if err != nil {
			return usage(err)
		}
		if experiment.Lookup(s.Name()) != nil {
			return usage(fmt.Errorf("%s: scenario name %q is already registered; rename the file's \"name\" field", *scenarioFile, s.Name()))
		}
		extra = append(extra, s)
		// A scenario file names one workload; run it by default. An
		// explicit -scenario/-run selection still wins, so a preset
		// re-expressed as a file can be compared against its Go twin
		// in a single invocation.
		if *scenario == "" && !explicit["run"] {
			*scenario = s.Name()
		}
	}
	names := experiment.Names(extra...)
	all := artifacts(experiment.Scenarios(extra...))
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-8s %s\n", a.name, a.desc)
		}
		fmt.Fprintf(stdout, "\nscenarios (runnable via -scenario): %s\n", strings.Join(names, ", "))
		return 0
	}
	selected, banner := all, true
	switch {
	case *scenario != "":
		i := slices.IndexFunc(all, func(a artifact) bool { return a.scenario != nil && a.name == *scenario })
		if i < 0 {
			return usage(fmt.Errorf("unknown scenario %q (known: %s)", *scenario, strings.Join(names, ", ")))
		}
		selected, banner = all[i:i+1], false
	case *runNames != "all":
		var known []string
		for _, a := range all {
			known = append(known, a.name)
		}
		sort.Strings(known)
		want := map[string]bool{}
		for _, n := range strings.Split(*runNames, ",") {
			n = strings.TrimSpace(n)
			if !slices.Contains(known, n) {
				return usage(fmt.Errorf("unknown artifact %q (known: %s)", n, strings.Join(known, ", ")))
			}
			want[n] = true
		}
		selected = slices.DeleteFunc(slices.Clone(all), func(a artifact) bool { return !want[a.name] })
	}
	if err := rejectUnshardable(o.shards, selected, all); err != nil {
		return usage(err)
	}
	if o.traceDir != "" {
		// Static artifacts run no simulation: the probe would make DIR
		// and nothing would write into it.
		if !slices.ContainsFunc(selected, func(a artifact) bool { return a.scenario != nil }) {
			var static []string
			for _, a := range selected {
				static = append(static, a.name)
			}
			return usage(fmt.Errorf("-trace %s: %s run no simulation, so there is nothing to trace", o.traceDir, strings.Join(static, ",")))
		}
		if err := probeTraceDir(o.traceDir); err != nil {
			return usage(err)
		}
	}
	if o.jsonPath != "" {
		if err := probeJSONPath(o.jsonPath); err != nil {
			return usage(err)
		}
	}
	// With -json - stdout carries the JSON document alone.
	figures := stdout
	if o.jsonPath == "-" {
		figures = stderr
	}
	for _, a := range selected {
		if banner {
			fmt.Fprintln(figures, strings.Repeat("=", 72))
		}
		text, err := runArtifact(a, o)
		fmt.Fprintln(figures, text)
		if err != nil {
			fmt.Fprintf(stderr, "dsbench: %v\n", err)
			return 1
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
