package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// dumbbellFile is the config-file-only scenario the scenfile tests pin.
const dumbbellFile = "../../internal/scenfile/testdata/dumbbell.scenario.json"

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestArtifactRegistry(t *testing.T) {
	all := artifacts(experiment.Scenarios())
	if len(all) < 15 {
		t.Fatalf("only %d artifacts registered", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.name == "" || a.desc == "" || (a.text == nil) == (a.scenario == nil) {
			t.Errorf("malformed artifact %+v", a)
		}
		if seen[a.name] {
			t.Errorf("duplicate artifact name %q", a.name)
		}
		seen[a.name] = true
	}
	// -run all and -list keep one order: the static artifacts, the
	// figures and scaling scenarios, then the ablations in sequence.
	var names []string
	for _, a := range all {
		names = append(names, a.name)
	}
	if got, want := strings.Join(names[:5], ","), "table1,table2,table3,table4,fig6"; got != want {
		t.Errorf("artifacts start %s, want %s", got, want)
	}
	if got, want := strings.Join(names[len(names)-6:], ","),
		"abl-shape,abl-hops,abl-jitter,abl-af,abl-tcp,ef-service"; got != want {
		t.Errorf("artifacts end %s, want the ablations %s", got, want)
	}
	// Every paper artifact must be present.
	for _, want := range []string{
		"table1", "table2", "table3", "table4",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16",
	} {
		if !seen[want] {
			t.Errorf("missing paper artifact %q", want)
		}
	}
}

// TestScenarioArtifactsComeFromRegistry: after the five static
// artifacts, the artifact table is the scenario registry in listing
// order — so `-run X` and `-scenario X` reach the same code — with the
// figures in natural order and the ablations last.
func TestScenarioArtifactsComeFromRegistry(t *testing.T) {
	scenarios := experiment.Scenarios()
	all := artifacts(scenarios)
	if len(all) != 5+len(scenarios) {
		t.Fatalf("%d artifacts for %d scenarios and 5 static artifacts", len(all), len(scenarios))
	}
	pos := map[string]int{}
	for i, s := range scenarios {
		a := all[5+i]
		if a.name != s.Name() || a.desc != s.Describe() || a.scenario == nil {
			t.Errorf("artifact %d is %s (%q), scenario is %s (%q)", 5+i, a.name, a.desc, s.Name(), s.Describe())
		}
		pos[s.Name()] = i
	}
	// fig7 must precede fig10 despite lexicographic order, and the
	// ablations follow everything else although "abl-" sorts first.
	if pos["fig7"] > pos["fig10"] || pos["abl-shape"] != len(scenarios)-6 || pos["ef-service"] != len(scenarios)-1 {
		t.Errorf("scenario order: %v", pos)
	}
}

func TestStaticArtifactsRender(t *testing.T) {
	for _, a := range artifacts(nil) {
		switch a.name {
		case "table1", "table2", "table3", "table4":
			if out := a.text(1); len(out) < 40 {
				t.Errorf("%s output suspiciously short: %q", a.name, out)
			}
		}
	}
}

// fakeScenario is a two-job scenario for exercising the JSON recording
// path: each job runs a small scripted simulation, and Assemble places
// every result in two series — what nflow, nflow-wide and every graph
// file do.
type fakeScenario struct {
	// events is how many events each fake job fires; queue receives the
	// calendar-queue telemetry each job's simulator then reported.
	events []int
	queue  []sim.QueueStats
}

// fakeTick fires once a millisecond until left events have fired.
type fakeTick struct {
	s    *sim.Simulator
	left int
}

func (f *fakeTick) Fire(units.Time) {
	if f.left--; f.left > 0 {
		f.s.AfterTimer(units.Millisecond, f)
	}
}

func (fakeScenario) Name() string     { return "fake" }
func (fakeScenario) Describe() string { return "fake scenario" }
func (f fakeScenario) Jobs() []experiment.Job {
	var jobs []experiment.Job
	for i, n := range f.events {
		i, n := i, n
		jobs = append(jobs, func(ctx *experiment.Ctx) experiment.Point {
			// 1 ms event spacing: the run outlives its first calendar
			// window, so it rebases.
			s := sim.New(1)
			s.AfterTimer(units.Millisecond, &fakeTick{s, n})
			s.Run()
			f.queue[i] = s.QueueStats()
			ctx.Finish("job", nil, s, topology.ShardStats{Shards: 1}, 2, time.Time{})
			return experiment.Point{
				TokenRate: 1.5e6, Depth: 3000, Label: fmt.Sprintf("N=%d", 2+i),
				Evaluation: experiment.Evaluation{FrameLoss: 0.25, Quality: 0.5, PacketLoss: 0.1},
			}
		})
	}
	return jobs
}
func (f fakeScenario) Grid() *experiment.Grid {
	return &experiment.Grid{Key: "fake", Points: len(f.events)}
}
func (fakeScenario) Assemble(results []experiment.Point) *experiment.Figure {
	return &experiment.Figure{ID: "F", Title: "fake title", XLabel: "Flows",
		Series: []experiment.Series{{Label: "mean", Points: results}, {Label: "worst", Points: results}}}
}

// TestJSONRecording pins the -json record: figure results under
// series[].points[], engine telemetry once per job under runs[] in job
// order — never on a series point, where a result folded into two
// series would count its simulation twice — and the scenario-level
// totals equal to the sums over runs[].
func TestJSONRecording(t *testing.T) {
	o := &options{scale: 1, parallel: 2, jsonPath: filepath.Join(t.TempDir(), "bench.json")}
	fake := fakeScenario{events: []int{1000, 250}, queue: make([]sim.QueueStats, 2)}
	out, err := runArtifact(artifact{name: "fake", desc: "fake scenario", scenario: fake}, o)
	if err != nil || !strings.Contains(out, "fake title") {
		t.Fatalf("artifact did not render: %q (err %v)", out, err)
	}
	if len(o.records) != 1 {
		t.Fatalf("recorded %d scenarios, want 1", len(o.records))
	}
	if err := writeJSON(o, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Parallel  int              `json:"parallel"`
		Scenarios []scenarioRecord `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON written: %v\n%s", err, data)
	}
	if got.Parallel != 2 || len(got.Scenarios) != 1 {
		t.Fatalf("bad envelope: %+v", got)
	}
	rec := got.Scenarios[0]
	if rec.Name != "fake" || rec.Parallel != 2 || rec.Scale != 1 || rec.WallMS < 0 {
		t.Errorf("bad record: %+v", rec)
	}
	if len(rec.Series) != 2 || len(rec.Series[1].Points) != len(fake.events) {
		t.Fatalf("bad series shape: %+v", rec.Series)
	}
	p := rec.Series[1].Points[0]
	if p.TokenRateBps != 1.5e6 || p.DepthBytes != 3000 || p.Label != "N=2" ||
		p.FrameLoss != 0.25 || p.Quality != 0.5 || p.PacketLoss != 0.1 {
		t.Errorf("bad point: %+v", p)
	}

	if len(rec.Runs) != len(fake.events) {
		t.Fatalf("recorded %d runs for %d jobs", len(rec.Runs), len(fake.events))
	}
	var events uint64
	for i, r := range rec.Runs {
		if r.Events != uint64(fake.events[i]) || r.Label != fmt.Sprintf("N=%d", 2+i) ||
			r.TokenRateBps != 1.5e6 || r.DepthBytes != 3000 {
			t.Errorf("run %d is not job %d's: %+v", i, i, r)
		}
		q := fake.queue[i]
		if r.QueueRebases == 0 || r.QueueRebases != q.Rebases ||
			r.QueueWidthUS != float64(q.Width)/float64(units.Microsecond) ||
			r.VirtualFlows != 2 || r.Shards != 1 {
			t.Errorf("run %d telemetry not recorded (job's queue: %+v): %+v", i, q, r)
		}
		events += r.Events
	}
	if events != 1250 || rec.Events != events || rec.VirtualFlows != 4 {
		t.Errorf("scenario totals count a simulation other than once: events %d (runs sum %d), vflows %d",
			rec.Events, events, rec.VirtualFlows)
	}

	// No telemetry key may appear under series[].points[].
	var raw struct {
		Scenarios []struct {
			Series []struct {
				Points []map[string]json.RawMessage `json:"points"`
			} `json:"series"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, s := range raw.Scenarios[0].Series {
		for _, pt := range s.Points {
			for _, key := range []string{"events", "virtual_flows", "shards", "shard_stall_ratio",
				"peak_heap_bytes", "bytes_per_vflow", "run_ms",
				"queue_rebases", "queue_width_us", "queue_overflow_ratio"} {
				if _, ok := pt[key]; ok {
					t.Errorf("telemetry key %q under series[].points[]: %v", key, pt)
				}
			}
		}
	}
}

// TestScaleValidation pins the accepting side of the -scale contract:
// any thinning factor from 1 up runs (a factor below 1 is a usage error
// in TestRunFlagValidation, never an empty sweep).
func TestScaleValidation(t *testing.T) {
	for _, n := range []string{"1", "2", "1000"} {
		if code, _, errOut := runCapture(t, "-run", "table4", "-scale", n); code != 0 {
			t.Errorf("-scale %s: exit %d: %s", n, code, errOut)
		}
	}
}

// TestTraceFlowValidation pins the accepting side of the -trace-flow
// contract: 0 means every flow, and any id up to the largest flow id
// (past 32 bits it once wrapped onto a small one) is a flow to capture.
// With only table4 selected there is nothing to trace, so each
// invocation is refused, but by -trace, after -trace-flow's value was
// accepted, and before DIR is made.
func TestTraceFlowValidation(t *testing.T) {
	flows := []string{"0", "1", "7"}
	if strconv.IntSize == 64 {
		flows = append(flows, strconv.FormatUint(math.MaxUint32, 10))
	}
	for _, n := range flows {
		dir := filepath.Join(t.TempDir(), "traces")
		code, out, errOut := runCapture(t, "-run", "table4", "-trace", dir, "-trace-flow", n)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "-trace "+dir+": table4 run no simulation") {
			t.Errorf("-trace-flow %s: exit %d, stdout %d bytes, stderr %q; want exit 2 naming -trace", n, code, len(out), errOut)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-trace-flow %s: the refused invocation made %s (stat err %v)", n, dir, err)
		}
	}
}

// TestWriteJSONAtomic pins the -json publish path: the file appears
// whole under its final name with no temp debris, and a failed write
// (unwritable directory) leaves no destination file at all.
func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := writeJSON(&options{parallel: 1, jsonPath: path}, nil); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Parallel int `json:"parallel"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("torn or invalid JSON: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp debris left beside bench.json: %v", ents)
	}

	missing := filepath.Join(dir, "no-such-subdir", "bench.json")
	if err := writeJSON(&options{parallel: 1, jsonPath: missing}, nil); err == nil {
		t.Error("writeJSON into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("failed write left a destination file: %v", err)
	}
}

// TestProbeTraceDir pins the up-front -trace check: a creatable
// directory passes and is left empty, and a path that cannot be a
// directory (here, one under a regular file) is an error naming it —
// run turns that into exit 2 before any job can panic on it.
func TestProbeTraceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces", "nested")
	if err := probeTraceDir(dir); err != nil {
		t.Fatalf("writable directory rejected: %v", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("probe left debris in %s: %v (err %v)", dir, ents, err)
	}

	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "traces")
	err := probeTraceDir(bad)
	if err == nil {
		t.Fatalf("probeTraceDir(%s) succeeded under a regular file", bad)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the path: %v", err)
	}
}

// TestProbeJSONPath pins the up-front -json check: a path in a
// writable directory passes and leaves nothing behind, stdout needs no
// probe, and a path whose directory is missing, or which is itself a
// directory, is an error naming -json and the path — run turns that
// into exit 2 before any job runs, where the write used to fail only
// after the whole run.
func TestProbeJSONPath(t *testing.T) {
	dir := t.TempDir()
	if err := probeJSONPath(filepath.Join(dir, "out.json")); err != nil {
		t.Fatalf("writable path rejected: %v", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("probe left debris in %s: %v (err %v)", dir, ents, err)
	}
	if err := probeJSONPath("-"); err != nil {
		t.Errorf("-json - rejected: %v", err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing", "out.json"), dir} {
		err := probeJSONPath(bad)
		if err == nil || !strings.HasPrefix(err.Error(), "-json "+bad+": ") {
			t.Errorf("probeJSONPath(%s): err = %v, want an error naming -json and the path", bad, err)
		}
	}
}

// TestRunFlagValidation pins the usage-error contract of run: each
// refused invocation exits 2 with nothing on stdout, and stderr names
// the flag (with its value, where it has one) or the path at fault —
// never a silently rewritten, untraced or unrun invocation. No row
// reaches a simulation.
func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(dumbbellFile)
	if err != nil {
		t.Fatal(err)
	}
	collide := filepath.Join(dir, "fig7.scenario.json")
	if err := os.WriteFile(collide, bytes.Replace(src, []byte(`"name": "dumbbell"`), []byte(`"name": "fig7"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	traces := filepath.Join(dir, "traces")
	wideFlow := strconv.FormatUint(math.MaxUint32+2, 10)
	rows := []struct {
		args []string
		want string
	}{
		// Integer flags below their minimum: ptrace would rewrite a
		// non-positive -trace-cap to its default and clamp -trace-head /
		// -trace-sample, -parallel and -shards would run serially or on
		// all cores, -scale < 1 would empty the sweep and a negative
		// -trace-flow would mean every flow.
		{[]string{"-parallel", "-1"}, "-parallel must be >= 0, got -1"},
		{[]string{"-shards", "0"}, "-shards must be >= 1, got 0"},
		{[]string{"-scale", "0"}, "-scale must be >= 1, got 0"},
		{[]string{"-scale", "-1000"}, "-scale must be >= 1, got -1000"},
		{[]string{"-trace", traces, "-trace-cap", "0"}, "-trace-cap must be >= 1, got 0"},
		{[]string{"-trace", traces, "-trace-head", "-9"}, "-trace-head must be >= 0, got -9"},
		{[]string{"-trace", traces, "-trace-sample", "0"}, "-trace-sample must be >= 1, got 0"},
		{[]string{"-trace", traces, "-trace-flow", "-1"}, "-trace-flow must be >= 0, got -1"},
		// Past 32 bits a flow id once wrapped onto a small one; a 32-bit
		// int cannot even parse it, which names the flag as well.
		{[]string{"-trace", traces, "-trace-flow", wideFlow}, "-trace-flow "},
		// -scenario and an explicit -run both select what runs.
		{[]string{"-scenario", "fig7", "-run", "fig7"}, "-scenario and -run both select what to run"},
		// A -trace-* flag without -trace DIR shapes no trace; two name
		// the first alphabetically.
		{[]string{"-trace-cap", "5"}, "-trace-cap requires -trace DIR"},
		{[]string{"-trace-head", "5"}, "-trace-head requires -trace DIR"},
		{[]string{"-trace-sample", "5"}, "-trace-sample requires -trace DIR"},
		{[]string{"-trace-verdicts"}, "-trace-verdicts requires -trace DIR"},
		{[]string{"-trace-flow", "5"}, "-trace-flow requires -trace DIR"},
		{[]string{"-trace-spill"}, "-trace-spill requires -trace DIR"},
		{[]string{"-trace-digest"}, "-trace-digest requires -trace DIR"},
		{[]string{"-trace-spill", "-trace-digest"}, "-trace-digest requires -trace DIR"},
		// A head above the cap was clamped to it, and a cap beside
		// -trace-spill bounded nothing: the spilled file held every event.
		{[]string{"-trace", traces, "-trace-cap", "100", "-trace-head", "4096"}, "-trace-head 4096 exceeds the 100-event capture (-trace-cap)"},
		{[]string{"-trace", traces, "-trace-head", "200000"}, "-trace-head 200000 exceeds the 131072-event capture (-trace-cap)"},
		{[]string{"-trace", traces, "-trace-spill", "-trace-cap", "10"}, "-trace-cap does not bound a -trace-spill capture"},
		// Output paths are probed before any job starts.
		{[]string{"-trace", filepath.Join(file, "traces")}, "-trace " + filepath.Join(file, "traces") + ": "},
		{[]string{"-json", filepath.Join(dir, "missing", "out.json")}, "-json " + filepath.Join(dir, "missing", "out.json") + ": "},
		{[]string{"-json", dir}, "-json " + dir + ": is a directory"},
		// Selections of nothing that exists.
		{[]string{"-scenario", "nope"}, `unknown scenario "nope" (known: abl-af,`},
		{[]string{"-scenario", "table4"}, `unknown scenario "table4"`},
		{[]string{"-run", "table4,nope"}, `unknown artifact "nope" (known: abl-af,`},
		// -shards on scenarios that cannot take it, named.
		{[]string{"-scenario", "fig7", "-shards", "2"}, "-shards 2 is not supported by: fig7 ("},
		{[]string{"-run", "table4,fig7,nflow", "-shards", "2"}, "-shards 2 is not supported by: fig7 ("},
		{[]string{"-scenario-file", dumbbellFile, "-shards", "2"}, "-shards 2 is not supported by: dumbbell ("},
		// A scenario file that cannot be read, or reuses a registered name.
		{[]string{"-scenario-file", filepath.Join(dir, "absent.json")}, filepath.Join(dir, "absent.json")},
		{[]string{"-scenario-file", collide}, collide + `: scenario name "fig7" is already registered`},
		// -list reads no run flag.
		{[]string{"-list", "-run", "fig7"}, "-run does not apply to -list"},
		{[]string{"-list", "-scenario", "fig7"}, "-scenario does not apply to -list"},
		{[]string{"-list", "-parallel", "2"}, "-parallel does not apply to -list"},
		{[]string{"-list", "-shards", "2"}, "-shards does not apply to -list"},
		{[]string{"-list", "-scale", "2"}, "-scale does not apply to -list"},
		{[]string{"-list", "-plot"}, "-plot does not apply to -list"},
		{[]string{"-list", "-json", "out.json"}, "-json does not apply to -list"},
		{[]string{"-list", "-trace", traces}, "-trace does not apply to -list"},
		{[]string{"-list", "-trace", traces, "-trace-digest"}, "-trace does not apply to -list"},
		{[]string{"-list", "-scenario-file", dumbbellFile, "-trace-cap", "5"}, "-trace-cap does not apply to -list"},
		{[]string{"-nope"}, "-nope"},
		// dsbench reads no positional argument; "dsbench fig7" once ran
		// every artifact.
		{[]string{"fig7"}, `unexpected argument "fig7": dsbench takes flags only (to run one artifact: -run fig7)`},
		{[]string{"-list", "fig7", "fig9"}, `unexpected argument "fig7"`},
		// -trace with only static artifacts selected traces nothing.
		{[]string{"-run", "table4,fig6", "-trace", traces}, "-trace " + traces + ": table4,fig6 run no simulation"},
		{[]string{"-run", "table1", "-trace", traces, "-trace-digest"}, "-trace " + traces + ": table1 run no simulation"},
	}
	for _, r := range rows {
		code, out, errOut := runCapture(t, r.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, r.want) {
			t.Errorf("dsbench %s: exit %d, stdout %d bytes, stderr %q; want exit 2, no stdout, stderr naming %q",
				strings.Join(r.args, " "), code, len(out), errOut, r.want)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 2 {
		t.Errorf("a refused invocation left files behind in %s: %v (err %v)", dir, ents, err)
	}
}

// TestSelectionValidation pins that -scenario-file's default selection
// gives way to an explicit -run or -scenario (only the two together
// are refused, in TestRunFlagValidation).
func TestSelectionValidation(t *testing.T) {
	code, out, errOut := runCapture(t, "-scenario-file", dumbbellFile, "-run", "table4")
	if code != 0 || !strings.Contains(out, "Table 4") || strings.Contains(out, "Dumbbell") {
		t.Errorf("-scenario-file with -run table4: exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
	// -scenario fig7 wins over the file: fig7, not the dumbbell, is
	// then refused -shards, before any job runs.
	code, _, errOut = runCapture(t, "-scenario-file", dumbbellFile, "-scenario", "fig7", "-shards", "2")
	if code != 2 || !strings.Contains(errOut, "not supported by: fig7 (") {
		t.Errorf("-scenario-file with -scenario fig7: exit %d, stderr %q", code, errOut)
	}
}

// TestScenarioFileListsTwice: a scenario file is compiled beside the
// registry, so one process can load it again — the second load once
// collided with the first one's registration.
func TestScenarioFileListsTwice(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		code, out, errOut := runCapture(t, "-scenario-file", dumbbellFile, "-list")
		if code != 0 || !strings.Contains(out, "\ndumbbell Dumbbell: ") || !strings.Contains(out, ", dumbbell, ") {
			t.Fatalf("load %d: exit %d, stderr %q, stdout:\n%s", i+1, code, errOut, out)
		}
		if i == 1 && out != first {
			t.Errorf("second listing differs:\n%s\nfirst:\n%s", out, first)
		}
		first = out
	}
	if code, out, _ := runCapture(t, "-list"); code != 0 || strings.Contains(out, "dumbbell") {
		t.Errorf("the file's scenario outlived its invocation: exit %d\n%s", code, out)
	}
}

// TestJSONStdoutIsOneDocument: with -json - the figure text goes to
// stderr, and stdout decodes as one JSON document.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	code, out, errOut := runCapture(t, "-run", "table4", "-json", "-")
	if code != 0 || !strings.Contains(errOut, "Table 4") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	var doc struct {
		Parallel  *int             `json:"parallel"`
		Scenarios []scenarioRecord `json:"scenarios"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil || doc.Parallel == nil || dec.More() {
		t.Errorf("stdout is not one JSON document (err %v):\n%s", err, out)
	}
}
