package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunRequiresInput(t *testing.T) {
	code, _, errOut := runCapture(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-in is required") {
		t.Errorf("stderr %q lacks the usage hint", errOut)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if code, _, _ := runCapture(t, "-nope"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-in", "x.ptrace", "-bucket", "-1s"); code != 2 {
		t.Errorf("negative bucket: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-h"); code != 0 {
		t.Errorf("-h: exit non-zero")
	}
}

func TestRunMissingFile(t *testing.T) {
	code, _, errOut := runCapture(t, "-in", filepath.Join(t.TempDir(), "absent.ptrace"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if errOut == "" {
		t.Error("no error reported")
	}
}

// TestRunRejectsNonTrace: garbage, and a trace recorded in the retired
// line-oriented encoding (first byte '{'), both exit 2; the stale one
// is named as such, with the command that replaces it.
func TestRunRejectsNonTrace(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"junk", "not a trace\n", "bad magic"},
		{"stale", `{"format":"ptrace","version":1,"seen":3,"events":0,"hops":["border"]}` + "\n",
			"JSONL v1 traces are no longer read; re-record with dsbench -trace"},
	} {
		path := filepath.Join(t.TempDir(), c.name+".ptrace")
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, errOut := runCapture(t, "-in", path)
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2", c.name, code)
		}
		if !strings.Contains(errOut, "unreadable or truncated trace") || !strings.Contains(errOut, c.want) {
			t.Errorf("%s: stderr %q does not identify the decode failure (%q)", c.name, errOut, c.want)
		}
	}
}

func TestRunRejectsTruncatedV2(t *testing.T) {
	dir := t.TempDir()
	pt, _ := traceTandem(t, dir)
	whole, err := os.ReadFile(pt)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ptrace")
	if err := os.WriteFile(cut, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCapture(t, "-in", cut)
	if code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, errOut)
	}
	if !strings.Contains(errOut, "unreadable or truncated trace") {
		t.Errorf("stderr %q does not identify the truncation", errOut)
	}
}

func readData(path string) (*ptrace.Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ptrace.Read(f)
}

// writeData encodes d into dir/name and returns the path.
func writeData(t *testing.T, d *ptrace.Data, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := d.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceTandem runs one traced tandem simulation and writes both the
// packet trace and the client frame trace to dir.
func traceTandem(t *testing.T, dir string) (ptracePath, framePath string) {
	t.Helper()
	rec := ptrace.NewRecorder(ptrace.Config{
		Capacity: 1 << 17, Kinds: ptrace.VerdictKinds(),
		Flows: []packet.FlowID{topology.VideoFlow},
	})
	tn := topology.BuildTandem(topology.TandemConfig{
		Seed: 42, Enc: video.CachedCBR(video.Lost(), 1.0e6),
		TokenRate: 1100 * units.Kbps, Depth: 3000, SecondBorder: true,
		Trace: rec,
	})
	tn.Run()

	ptracePath = filepath.Join(dir, "run.ptrace")
	f, err := os.Create(ptracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Data().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	framePath = filepath.Join(dir, "run.trace")
	ff, err := os.Create(framePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Client.Trace().WriteTo(ff); err != nil {
		t.Fatal(err)
	}
	ff.Close()
	return ptracePath, framePath
}

func TestRunSummarizesTandemTrace(t *testing.T) {
	dir := t.TempDir()
	pt, ft := traceTandem(t, dir)

	code, out, errOut := runCapture(t, "-in", pt)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"per-hop:", "border1", "border2", "client",
		"conditioner verdicts:", "verdict timeline:", "per-flow one-way delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}

	// Join against the frame trace: losses must be attributed, and
	// with two tight borders at least one frame kill lands on one. The
	// join is a second pass, so the summary ahead of it is unchanged.
	summary := out
	code, out, errOut = runCapture(t, "-in", pt, "-frames", ft, "-top", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.HasPrefix(out, summary) {
		t.Errorf("-frames changed the summary pass:\n%s", out)
	}
	if !strings.Contains(out, "frame-loss attribution") ||
		!strings.Contains(out, "frame kills by hop:") {
		t.Errorf("attribution section missing:\n%s", out)
	}
	if !strings.Contains(out, "border") {
		t.Errorf("no border blamed for any frame:\n%s", out)
	}
}

// TestRunHeaderShowsFormat pins the header line: the trace path, the
// decoded event count and the hop-table size.
func TestRunHeaderShowsFormat(t *testing.T) {
	dir := t.TempDir()
	pt, _ := traceTandem(t, dir)
	d, err := readData(pt)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCapture(t, "-in", pt)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := fmt.Sprintf("trace: %s (%d events, %d hops)", pt, len(d.Events), len(d.Hops))
	if firstLine(out) != want {
		t.Errorf("header %q, want %q", firstLine(out), want)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestCompareUsage(t *testing.T) {
	if code, _, _ := runCapture(t, "-compare", "one.ptrace"); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-compare", "-rel", "-0.5", "a", "b"); code != 2 {
		t.Errorf("negative rel: exit %d, want 2", code)
	}
}

// TestCompareSelfAndPerturbed: a run compared against its own
// re-encoding reports zero deltas and exits 0; a perturbed run
// breaches and exits non-zero.
func TestCompareSelfAndPerturbed(t *testing.T) {
	dir := t.TempDir()
	pt, _ := traceTandem(t, dir)
	d, err := readData(pt)
	if err != nil {
		t.Fatal(err)
	}
	again := writeData(t, d, dir, "again.ptrace")

	// Self-compare through a decode and re-encode: the digest must be identical.
	code, out, errOut := runCapture(t, "-compare", pt, again)
	if code != 0 {
		t.Fatalf("self-compare exit %d: %s\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "no behavioral deltas") {
		t.Errorf("self-compare output lacks the clean verdict:\n%s", out)
	}

	// Perturb: drop the last quarter of the events. Counts shift, so
	// the exact (zero-threshold) gate must breach.
	pp := writeData(t, &ptrace.Data{Hops: d.Hops, Seen: d.Seen,
		Events: d.Events[:len(d.Events)*3/4]}, dir, "perturbed.ptrace")

	code, out, errOut = runCapture(t, "-compare", pt, pp)
	if code != 1 {
		t.Fatalf("perturbed compare exit %d, want 1: %s", code, errOut)
	}
	if !strings.Contains(out, "BREACH") || !strings.Contains(errOut, "breach") {
		t.Errorf("perturbed compare did not flag breaches:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}

	// A huge relative tolerance swallows the count shifts: exit 0 even
	// though deltas are listed.
	code, out, errOut = runCapture(t, "-compare", "-rel", "100", "-abs-ms", "1e9", pt, pp)
	if code != 0 {
		t.Fatalf("tolerant compare exit %d, want 0: %s\n%s", code, errOut, out)
	}
}

// writeDigestFor analyzes a trace at bucket 0 (the digest-producer
// convention) and stores its summary as a .digest file.
func writeDigestFor(t *testing.T, tracePath, digestPath string) {
	t.Helper()
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := ptrace.AnalyzeStream(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Create(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptrace.WriteSummary(df, s); err != nil {
		t.Fatal(err)
	}
	df.Close()
}

func TestCompareGoldenUsage(t *testing.T) {
	if code, _, _ := runCapture(t, "-compare-golden", "g.digest"); code != 2 {
		t.Errorf("zero traces: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-compare-golden", "g.digest", "a.ptrace", "b.ptrace"); code != 2 {
		t.Errorf("two traces: exit %d, want 2", code)
	}
	if code, _, _ := runCapture(t, "-compare-golden", "g.digest", "-rel", "-1", "a.ptrace"); code != 2 {
		t.Errorf("negative rel: exit %d, want 2", code)
	}
	code, _, errOut := runCapture(t, "-compare", "-compare-golden", "g.digest", "a.ptrace", "b.ptrace")
	if code != 2 || !strings.Contains(errOut, "mutually exclusive") {
		t.Errorf("compare+compare-golden: exit %d (%q), want 2 with conflict message", code, errOut)
	}
}

// TestCompareGoldenGate pins the golden-digest gate end to end: the
// stored digest passes against the run that produced it, a perturbed
// run breaches with exit 1, a garbage digest is a hard 2, and a
// missing digest file is a 1 like any other unopenable input.
func TestCompareGoldenGate(t *testing.T) {
	dir := t.TempDir()
	pt, _ := traceTandem(t, dir)
	golden := filepath.Join(dir, "golden.digest")
	writeDigestFor(t, pt, golden)

	code, out, errOut := runCapture(t, "-compare-golden", golden, pt)
	if code != 0 {
		t.Fatalf("self gate exit %d: %s\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "no behavioral deltas") || !strings.Contains(out, "golden:") {
		t.Errorf("clean gate output unexpected:\n%s", out)
	}

	// Perturb the run the same way the trace-compare test does: the
	// zero-threshold gate must breach.
	d, err := readData(pt)
	if err != nil {
		t.Fatal(err)
	}
	pp := writeData(t, &ptrace.Data{Hops: d.Hops, Seen: d.Seen,
		Events: d.Events[:len(d.Events)*3/4]}, dir, "perturbed.ptrace")

	code, out, errOut = runCapture(t, "-compare-golden", golden, pp)
	if code != 1 {
		t.Fatalf("perturbed gate exit %d, want 1: %s", code, errOut)
	}
	if !strings.Contains(out, "BREACH") || !strings.Contains(errOut, "breach") {
		t.Errorf("perturbed gate did not flag breaches:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}

	// Garbage digest: opens fine, is not a digest — usage-class 2.
	junk := filepath.Join(dir, "junk.digest")
	if err := os.WriteFile(junk, []byte("not a digest\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCapture(t, "-compare-golden", junk, pt)
	if code != 2 {
		t.Fatalf("junk digest exit %d, want 2: %s", code, errOut)
	}

	// Missing digest file: unopenable input — exit 1.
	code, _, _ = runCapture(t, "-compare-golden", filepath.Join(dir, "absent.digest"), pt)
	if code != 1 {
		t.Fatalf("missing digest exit %d, want 1", code)
	}
}
