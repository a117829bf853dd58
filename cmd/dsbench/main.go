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
// -trace-digest additionally writes a <point>.digest behavioral
// summary beside each sealed trace, the currency of the `dstrace
// -compare-golden` gate, folded while the trace is written. Any
// -trace-* flag without -trace DIR exits 2 naming it. Trace files
// are written atomically (temp file + rename), so an interrupted run
// never leaves a torn .ptrace; DIR is probed for writability before
// any job starts, and an unwritable one exits 2 naming the path. A
// trace that still fails to write mid-run leaves the figure intact:
// dsbench prints it, names the failed path and exits 1.
//
// Figure scenarios come from the experiment scenario registry and are
// executed on the deterministic runner pool: -parallel changes only
// wall-clock time, never a byte of output. -scenario-file compiles a
// JSON scenario file (internal/scenfile) into the same registry and
// runs it under the identical contract — -shards is honored when the
// file's declared capabilities allow it and rejected up front
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

type artifact struct {
	name string
	desc string
	run  func(scale int) string
}

// plotMode is set by the -plot flag: render figures as ASCII charts
// in addition to the numeric tables.
var plotMode bool

// parallelism is set by the -parallel flag; 0 means GOMAXPROCS.
var parallelism int

// shardCount is set by the -shards flag: the requested shard workers
// per simulation. Effective workers = min(requested, partitionable
// batched flows), reported per run — an unbatched point has none and
// runs serially. The knob trades cores-per-point against
// points-in-flight. Output is not identical at every value: the
// shardeq harness pins sharded runs equal to serial ones only on small
// grids (nflow-wide at 16 and 64 flows, fleet points of 1,000 and 2,000
// flows), and nflow-wide's 256-flow point and 16 k-flow fleets differ
// at full scale (see experiment.Ctx.Shards). Scenarios that declare no
// shard capability are rejected up front rather than silently ignoring
// the flag.
var shardCount int

// jsonPath is set by the -json flag; scenario artifacts then record
// machine-readable results (points, wall time, parallelism) that main
// writes out at exit, so BENCH_*.json perf trajectories can accumulate
// across runs.
var jsonPath string

// jsonRecords collects one record per scenario artifact that ran.
var jsonRecords []scenarioRecord

// traceDir and traceCfg are set by the -trace* flags; when traceDir is
// non-empty every scenario artifact dumps per-point packet traces.
// traceSpill streams complete captures during the run, and
// traceDigest writes a behavioral .digest beside each sealed trace.
var (
	traceDir    string
	traceCfg    ptrace.Config
	traceSpill  bool
	traceDigest bool
)

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

func makeRecord(name string, fig *experiment.Figure, wall time.Duration, scale int, allocs uint64) scenarioRecord {
	rec := scenarioRecord{
		Name: name, Title: fig.Title, Parallel: parallelism, Scale: scale,
		Shards: shardCount,
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

// writeJSON dumps the collected records ("-" means stdout).
func writeJSON(path string) error {
	out := struct {
		Parallel  int              `json:"parallel"`
		Scenarios []scenarioRecord `json:"scenarios"`
	}{Parallel: parallelism, Scenarios: jsonRecords}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	// Atomic like every other artifact: a reader polling for the
	// trajectory file never observes a torn JSON document.
	return atomicfile.WriteFile(path, data)
}

func render(f *experiment.Figure) string {
	out := f.Format()
	if plot := f.Plot(64, 16, false); plotMode && plot != "" {
		out += "\n" + plot
	}
	return out
}

// scenarioArtifact adapts a registered scenario to the artifact table,
// recording a JSON result when -json is set.
func scenarioArtifact(s experiment.Scenario) artifact {
	return artifact{s.Name(), s.Describe(), func(scale int) string {
		sc := experiment.Scaled(s, scale)
		var msBefore runtime.MemStats
		if jsonPath != "" {
			runtime.ReadMemStats(&msBefore)
		}
		var tr *experiment.TraceRequest
		if traceDir != "" {
			tr = &experiment.TraceRequest{Dir: traceDir, Config: traceCfg,
				Spill: traceSpill, Digest: traceDigest}
		}
		start := time.Now()
		fig := experiment.RunScenarioOpts(sc, experiment.RunOptions{
			Parallel: parallelism, Trace: tr, Shards: shardCount,
		})
		wall := time.Since(start)
		if jsonPath != "" {
			var msAfter runtime.MemStats
			runtime.ReadMemStats(&msAfter)
			jsonRecords = append(jsonRecords,
				makeRecord(sc.Name(), fig, wall, scale, msAfter.Mallocs-msBefore.Mallocs))
		}
		out := render(fig)
		if tr != nil {
			if err := tr.Err(); err != nil {
				fmt.Println(out)
				fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
				os.Exit(1)
			}
			out += fmt.Sprintf("\n[%d packet traces written to %s]\n", len(tr.Files()), traceDir)
		}
		return out
	}}
}

func artifacts() []artifact {
	all := []artifact{
		{"table1", "Frame Relay interface configuration", func(int) string {
			var b strings.Builder
			b.WriteString("Table 1 — Frame Relay interface configuration\n")
			fmt.Fprintf(&b, "%-14s %-10s %-10s %-6s %-6s\n", "Interface", "CIR", "Bc", "Be", "Type")
			for _, c := range link.Table1() {
				fmt.Fprintf(&b, "%-14s %-10.0f %-10d %-6d %-6s\n", c.Name, float64(c.CIR), c.Bc, c.Be, c.Kind)
			}
			return b.String()
		}},
		{"table2", "MPEG encoding properties of Lost and Dark", func(int) string {
			return video.FormatTable2("Lost", video.Table2(video.Lost())) + "\n" +
				video.FormatTable2("Dark", video.Table2(video.Dark()))
		}},
		{"table3", "Windows Media encoded clip properties", func(int) string {
			return video.FormatTable3([]video.WMVRow{
				video.Table3(video.Lost()), video.Table3(video.Dark()),
			})
		}},
		{"table4", "Summary of experimental configurations", func(int) string {
			return experiment.Table4()
		}},
		{"fig6", "Instantaneous transmission rates of the MPEG clips", func(scale int) string {
			every := 31 * scale
			return experiment.Figure6(video.Lost(), every) + "\n" + experiment.Figure6(video.Dark(), every)
		}},
	}
	// Scenarios() is in listing order: fig7 … fig16 and the scaling
	// scenarios, then the ablations.
	for _, s := range experiment.Scenarios() {
		all = append(all, scenarioArtifact(s))
	}
	return all
}

// rejectUnshardable exits with a clear error when -shards > 1 was
// combined with scenarios whose jobs would silently ignore it. Only
// the scenarios actually selected for this invocation are checked, so
// e.g. `-run nflow-fleet -shards 4` never trips over fig7.
func rejectUnshardable(names map[string]bool, runAll bool) {
	if shardCount <= 1 {
		return
	}
	var bad []string
	for _, s := range experiment.Scenarios() {
		if (runAll || names[s.Name()]) && !s.Grid().Shards {
			bad = append(bad, s.Name())
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr,
			"-shards %d is not supported by: %s (these scenarios run single-simulator jobs; drop -shards or select shard-capable scenarios such as %s)\n",
			shardCount, strings.Join(bad, ", "), strings.Join(shardableNames(), ", "))
		os.Exit(2)
	}
}

// shardableNames lists the registered scenarios whose jobs dispatch to
// the intra-run sharded pipeline.
func shardableNames() []string {
	var out []string
	for _, s := range experiment.Scenarios() {
		if s.Grid().Shards {
			out = append(out, s.Name())
		}
	}
	return out
}

// validateSelection rejects -scenario together with an explicit -run:
// both select what to run, and neither may silently win.
func validateSelection(explicit map[string]bool) error {
	if explicit["scenario"] && explicit["run"] {
		return fmt.Errorf("-scenario and -run both select what to run; give one of them")
	}
	return nil
}

// validateTraceFlags rejects a -trace-* flag given without -trace DIR:
// every one of them shapes the traces -trace writes, so without a
// directory the run would silently go untraced. The error names the
// first such flag in alphabetical order.
func validateTraceFlags(explicit map[string]bool, dir string) error {
	first := ""
	for name := range explicit {
		if strings.HasPrefix(name, "trace-") && (first == "" || name < first) {
			first = name
		}
	}
	if dir != "" || first == "" {
		return nil
	}
	return fmt.Errorf("-%s requires -trace DIR (it shapes the traces written there)", first)
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
	list := flag.Bool("list", false, "list available artifacts")
	run := flag.String("run", "all", "comma-separated artifact names, or 'all'")
	scenario := flag.String("scenario", "", "run one registered scenario by name (see -list)")
	scenarioFile := flag.String("scenario-file", "",
		"compile and register a JSON scenario file (see internal/scenfile); runs it unless -run/-scenario selects otherwise")
	parallel := flag.Int("parallel", 0, "simulation worker-pool size (0 = all cores, 1 = serial)")
	shards := flag.Int("shards", 1,
		"requested intra-run shard workers per simulation; effective workers = min(requested, partitionable batched flows), reported per run (output can differ from -shards 1 on large batched points)")
	scale := flag.Int("scale", 1, "token-sweep thinning factor (1 = full resolution)")
	plot := flag.Bool("plot", false, "render figures as ASCII charts too")
	jsonFlag := flag.String("json", "", "write per-scenario results as JSON to this file (\"-\" = stdout)")
	trace := flag.String("trace", "", "write per-point packet traces (.ptrace) into this directory")
	traceCap := flag.Int("trace-cap", 1<<17, "max events retained per trace")
	traceHead := flag.Int("trace-head", 4096, "events pinned from the start of each run")
	traceSample := flag.Int("trace-sample", 1, "keep 1 event in N after the head fills")
	traceVerdicts := flag.Bool("trace-verdicts", false,
		"capture only conditioner verdicts, drops, deliveries and TCP events")
	traceFlow := flag.Int("trace-flow", 0, "capture only this flow id (0 = every flow)")
	traceSpillFlag := flag.Bool("trace-spill", false,
		"stream the complete filtered capture to disk during the run, unbounded by -trace-cap; the file is the capture and no ring is kept in RAM")
	traceDigestFlag := flag.Bool("trace-digest", false,
		"write a behavioral .digest beside each sealed trace (requires -trace; input to dstrace -compare-golden)")
	flag.Parse()
	// explicit records which flags the user actually set, so defaults
	// and deliberate choices can be told apart (scenario-file
	// auto-selection).
	explicit := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	plotMode = *plot
	parallelism = *parallel
	shardCount = *shards
	if err := validateRunFlags(*parallel, *shards, *scale, *traceCap, *traceHead, *traceSample, *traceFlow); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateSelection(explicit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := validateTraceFlags(explicit, *trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	jsonPath = *jsonFlag
	traceDir = *trace
	traceCfg = ptrace.Config{Capacity: *traceCap, Head: *traceHead, Sample: *traceSample}
	if *traceVerdicts {
		traceCfg.Kinds = ptrace.VerdictKinds()
	}
	if *traceFlow > 0 {
		traceCfg.Flows = []packet.FlowID{packet.FlowID(*traceFlow)}
	}
	traceSpill = *traceSpillFlag
	traceDigest = *traceDigestFlag
	if *scenarioFile != "" {
		s, err := scenfile.LoadAndRegister(*scenarioFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// A scenario file names one workload; run it by default. An
		// explicit -scenario/-run selection still wins, so a preset
		// re-expressed as a file can be compared against its Go twin
		// in a single invocation.
		if *scenario == "" && !explicit["run"] {
			*scenario = s.Name()
		}
	}

	all := artifacts()
	if *list {
		for _, a := range all {
			fmt.Printf("%-8s %s\n", a.name, a.desc)
		}
		fmt.Printf("\nscenarios (runnable via -scenario): %s\n",
			strings.Join(experiment.Names(), ", "))
		return
	}
	if traceDir != "" {
		if err := probeTraceDir(traceDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if jsonPath != "" {
		if err := probeJSONPath(jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *scenario != "" {
		s := experiment.Lookup(*scenario)
		if s == nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (known: %s)\n",
				*scenario, strings.Join(experiment.Names(), ", "))
			os.Exit(2)
		}
		rejectUnshardable(map[string]bool{s.Name(): true}, false)
		fmt.Println(scenarioArtifact(s).run(*scale))
	} else {
		want := map[string]bool{}
		if *run != "all" {
			var known []string
			for _, a := range all {
				known = append(known, a.name)
			}
			sort.Strings(known)
			for _, n := range strings.Split(*run, ",") {
				n = strings.TrimSpace(n)
				if i := sort.SearchStrings(known, n); i == len(known) || known[i] != n {
					fmt.Fprintf(os.Stderr, "unknown artifact %q (known: %s)\n", n, strings.Join(known, ", "))
					os.Exit(2)
				}
				want[n] = true
			}
		}
		rejectUnshardable(want, *run == "all")
		for _, a := range all {
			if *run == "all" || want[a.name] {
				fmt.Println(strings.Repeat("=", 72))
				fmt.Println(a.run(*scale))
			}
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
