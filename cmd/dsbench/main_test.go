package main

import (
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

func TestArtifactRegistry(t *testing.T) {
	all := artifacts()
	if len(all) < 15 {
		t.Fatalf("only %d artifacts registered", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.name == "" || a.desc == "" || a.run == nil {
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
	all, scenarios := artifacts(), experiment.Scenarios()
	if len(all) != 5+len(scenarios) {
		t.Fatalf("%d artifacts for %d scenarios and 5 static artifacts", len(all), len(scenarios))
	}
	pos := map[string]int{}
	for i, s := range scenarios {
		a := all[5+i]
		if a.name != s.Name() || a.desc != s.Describe() {
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
	for _, a := range artifacts() {
		switch a.name {
		case "table1", "table2", "table3", "table4":
			if out := a.run(1); len(out) < 40 {
				t.Errorf("%s output suspiciously short: %q", a.name, out)
			}
		}
	}
}

// fakeScenario is a two-job scenario for exercising the JSON recording
// path: each job runs a small scripted simulation, and Assemble places
// every result in two series — what nflow, nflow-wide and every graph
// file do.
type fakeScenario struct{}

// fakeEvents is how many events each fake job fires; fakeQueue is the
// calendar-queue telemetry its simulator then reported.
var (
	fakeEvents = []int{1000, 250}
	fakeQueue  [2]sim.QueueStats
)

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
func (fakeScenario) Jobs() []experiment.Job {
	var jobs []experiment.Job
	for i, n := range fakeEvents {
		i, n := i, n
		jobs = append(jobs, func(ctx *experiment.Ctx) experiment.Point {
			// 1 ms event spacing: the run outlives its first calendar
			// window, so it rebases.
			s := sim.New(1)
			s.AfterTimer(units.Millisecond, &fakeTick{s, n})
			s.Run()
			fakeQueue[i] = s.QueueStats()
			ctx.Finish("job", nil, s, topology.ShardStats{Shards: 1}, 2, time.Time{})
			return experiment.Point{
				TokenRate: 1.5e6, Depth: 3000, Label: fmt.Sprintf("N=%d", 2+i),
				Evaluation: experiment.Evaluation{FrameLoss: 0.25, Quality: 0.5, PacketLoss: 0.1},
			}
		})
	}
	return jobs
}
func (fakeScenario) Grid() *experiment.Grid {
	return &experiment.Grid{Key: "fake", Points: len(fakeEvents)}
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
	oldPath, oldRecords, oldParallel := jsonPath, jsonRecords, parallelism
	defer func() { jsonPath, jsonRecords, parallelism = oldPath, oldRecords, oldParallel }()
	jsonPath = filepath.Join(t.TempDir(), "bench.json")
	jsonRecords = nil
	parallelism = 2

	if out := scenarioArtifact(fakeScenario{}).run(1); !strings.Contains(out, "fake title") {
		t.Fatalf("artifact did not render: %q", out)
	}
	if len(jsonRecords) != 1 {
		t.Fatalf("recorded %d scenarios, want 1", len(jsonRecords))
	}
	if err := writeJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
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
	if len(rec.Series) != 2 || len(rec.Series[1].Points) != len(fakeEvents) {
		t.Fatalf("bad series shape: %+v", rec.Series)
	}
	p := rec.Series[1].Points[0]
	if p.TokenRateBps != 1.5e6 || p.DepthBytes != 3000 || p.Label != "N=2" ||
		p.FrameLoss != 0.25 || p.Quality != 0.5 || p.PacketLoss != 0.1 {
		t.Errorf("bad point: %+v", p)
	}

	if len(rec.Runs) != len(fakeEvents) {
		t.Fatalf("recorded %d runs for %d jobs", len(rec.Runs), len(fakeEvents))
	}
	var events uint64
	for i, r := range rec.Runs {
		if r.Events != uint64(fakeEvents[i]) || r.Label != fmt.Sprintf("N=%d", 2+i) ||
			r.TokenRateBps != 1.5e6 || r.DepthBytes != 3000 {
			t.Errorf("run %d is not job %d's: %+v", i, i, r)
		}
		q := fakeQueue[i]
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

// runFlagsMin holds each integer run flag at its minimum, in
// validateRunFlags' parameter order: parallel, shards, scale,
// trace-cap, trace-head, trace-sample, trace-flow.
var runFlagsMin = [7]int{0, 1, 1, 1, 0, 1, 0}

// validateRunFlag validates the minimum values with flag i set to n.
func validateRunFlag(i, n int) error {
	v := runFlagsMin
	v[i] = n
	return validateRunFlags(v[0], v[1], v[2], v[3], v[4], v[5], v[6])
}

// TestScaleValidation pins the parse-time -scale contract: a thinning
// factor below 1 is a usage error, never an empty sweep.
func TestScaleValidation(t *testing.T) {
	for _, n := range []int{1, 2, 1000} {
		if err := validateRunFlag(2, n); err != nil {
			t.Errorf("-scale %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, -1, -1000} {
		if err := validateRunFlag(2, n); err == nil {
			t.Errorf("-scale %d accepted", n)
		}
	}
}

// TestTraceFlowValidation pins the parse-time -trace-flow contract:
// 0 means every flow, negatives are rejected instead of silently
// meaning the same thing.
func TestTraceFlowValidation(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		if err := validateRunFlag(6, n); err != nil {
			t.Errorf("-trace-flow %d rejected: %v", n, err)
		}
	}
	if err := validateRunFlag(6, -1); err == nil {
		t.Error("-trace-flow -1 accepted")
	}
}

// TestWriteJSONAtomic pins the -json publish path: the file appears
// whole under its final name with no temp debris, and a failed write
// (unwritable directory) leaves no destination file at all.
func TestWriteJSONAtomic(t *testing.T) {
	oldPath, oldRecords, oldParallel := jsonPath, jsonRecords, parallelism
	defer func() { jsonPath, jsonRecords, parallelism = oldPath, oldRecords, oldParallel }()
	jsonRecords = nil
	parallelism = 1

	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := writeJSON(path); err != nil {
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
	if err := writeJSON(missing); err == nil {
		t.Error("writeJSON into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("failed write left a destination file: %v", err)
	}
}

// TestProbeTraceDir pins the up-front -trace check: a creatable
// directory passes and is left empty, and a path that cannot be a
// directory (here, one under a regular file) is an error naming it —
// main turns that into exit 2 before any job can panic on it.
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
// directory, is an error naming -json and the path — main turns that
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

// TestRunFlagValidation pins the parse-time contract of the integer
// run flags: a value below the flag's minimum is a usage error naming
// the flag and the value, never a silently rewritten run.
func TestRunFlagValidation(t *testing.T) {
	if err := validateRunFlag(0, runFlagsMin[0]); err != nil {
		t.Errorf("minimum values rejected: %v", err)
	}
	if err := validateRunFlags(8, 4, 4, 1<<17, 4096, 10, 3); err != nil {
		t.Errorf("ordinary values rejected: %v", err)
	}
	for i, tc := range []struct {
		flag string
		bad  int
	}{
		{"-parallel", -1},
		{"-shards", 0},
		{"-scale", 0},
		{"-trace-cap", 0},
		{"-trace-head", -9},
		{"-trace-sample", 0},
		{"-trace-flow", -1},
	} {
		err := validateRunFlag(i, tc.bad)
		if err == nil {
			t.Errorf("%s %d accepted", tc.flag, tc.bad)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, tc.flag+" ") || !strings.HasSuffix(msg, fmt.Sprintf("got %d", tc.bad)) {
			t.Errorf("%s %d: error does not name flag and value: %v", tc.flag, tc.bad, err)
		}
	}
	// A flow id past 32 bits once wrapped onto a small one: 1<<32 + 1
	// captured flow 1. Only a 64-bit int can hold one.
	if strconv.IntSize == 64 {
		largest := uint64(math.MaxUint32)
		if err := validateRunFlag(6, int(largest)); err != nil {
			t.Errorf("-trace-flow at the largest flow id rejected: %v", err)
		}
		wide := largest + 2
		err := validateRunFlag(6, int(wide))
		if err == nil || !strings.HasPrefix(err.Error(), "-trace-flow ") || !strings.HasSuffix(err.Error(), fmt.Sprintf("got %d", wide)) {
			t.Errorf("-trace-flow %d: err = %v, want a usage error naming flag and value", wide, err)
		}
	}

	// A -trace-* flag without -trace DIR would shape no trace: the run
	// used to go untraced and exit 0. Each one alone is a usage error
	// naming it; with -trace DIR, or with no trace flag, all pass.
	for _, name := range []string{"trace-cap", "trace-head", "trace-sample",
		"trace-verdicts", "trace-flow", "trace-spill", "trace-digest"} {
		explicit := map[string]bool{name: true, "scenario": true, "scale": true}
		err := validateTraceFlags(explicit, "")
		if err == nil || !strings.HasPrefix(err.Error(), "-"+name+" requires -trace DIR") {
			t.Errorf("-%s without -trace: err = %v, want a usage error naming it", name, err)
		}
		explicit["trace"] = true
		if err := validateTraceFlags(explicit, "traces"); err != nil {
			t.Errorf("-%s with -trace traces rejected: %v", name, err)
		}
	}
	if err := validateTraceFlags(map[string]bool{"scenario": true, "parallel": true}, ""); err != nil {
		t.Errorf("an untraced run rejected: %v", err)
	}
	err := validateTraceFlags(map[string]bool{"trace-spill": true, "trace-digest": true}, "")
	if err == nil || !strings.HasPrefix(err.Error(), "-trace-digest ") {
		t.Errorf("two trace flags without -trace: err = %v, want the first by name, -trace-digest", err)
	}
}

// TestSelectionValidation pins that -scenario and an explicit -run
// cannot both select what runs (-scenario used to win silently), while
// -scenario-file's default selection still gives way to -run.
func TestSelectionValidation(t *testing.T) {
	for _, c := range []struct {
		set []string
		bad bool
	}{
		{nil, false},
		{[]string{"run"}, false},
		{[]string{"scenario"}, false},
		{[]string{"scenario-file", "run"}, false},
		{[]string{"scenario-file", "scenario"}, false},
		{[]string{"scenario", "run"}, true},
	} {
		explicit := map[string]bool{}
		for _, f := range c.set {
			explicit[f] = true
		}
		err := validateSelection(explicit)
		if (err != nil) != c.bad {
			t.Errorf("flags %v: err = %v, want error %v", c.set, err, c.bad)
		}
		if err != nil && !(strings.Contains(err.Error(), "-scenario") && strings.Contains(err.Error(), "-run")) {
			t.Errorf("flags %v: error does not name both flags: %v", c.set, err)
		}
	}
}
