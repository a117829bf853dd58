package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func reducedTandem() TandemSpec {
	spec := TandemSweepSpec()
	spec.Tokens = []units.BitRate{1100 * units.Kbps, 1400 * units.Kbps}
	spec.Runs = 1
	return spec
}

func TestTandemScenarioShape(t *testing.T) {
	t.Parallel()
	fig := RunScenarioOpts(reducedTandem(), RunOptions{})
	if len(fig.Series) != 2 || fig.Series[0].Label != "1border" || fig.Series[1].Label != "2border" {
		t.Fatalf("series = %+v", fig.Series)
	}
	for si, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %d has %d points, want 2", si, len(s.Points))
		}
	}
	// Re-policing the re-clocked aggregate can only hurt: at every
	// token rate the two-border path loses at least as many packets
	// as the single-border baseline.
	for i := range fig.Series[0].Points {
		one, two := fig.Series[0].Points[i], fig.Series[1].Points[i]
		if two.PacketLoss+1e-9 < one.PacketLoss {
			t.Errorf("token %v: 2-border packet loss %.4f below 1-border %.4f",
				one.TokenRate, two.PacketLoss, one.PacketLoss)
		}
	}
}

func TestTandemScenarioRegisteredAndScalable(t *testing.T) {
	s := Lookup("tandem")
	if s == nil {
		t.Fatal("tandem not registered")
	}
	if _, ok := s.(Scalable); !ok {
		t.Fatal("tandem is not Scalable")
	}
	sc := TandemSweepSpec().Scaled(3).(TandemSpec)
	full := TandemSweepSpec()
	if len(sc.Tokens) >= len(full.Tokens) ||
		sc.Tokens[len(sc.Tokens)-1] != full.Tokens[len(full.Tokens)-1] {
		t.Errorf("Scaled grid wrong: %v", sc.Tokens)
	}
}

// TestTandemTraceFiles drives the dsbench -trace plumbing end to end:
// a traced scenario run writes one readable .ptrace file per grid
// point, and the figure is byte-identical to the untraced run. The
// same points spilled must give the same files: with no sampling and a
// ring that overwrote nothing, the ring save and the spill are one
// capture through one writer.
func TestTandemTraceFiles(t *testing.T) {
	t.Parallel()
	spec := reducedTandem()
	dir := t.TempDir()
	const ringCap = 1 << 15
	tr := &TraceRequest{Dir: dir, Config: ptrace.Config{
		Capacity: ringCap, Kinds: ptrace.VerdictKinds(), Flows: []packet.FlowID{topology.VideoFlow},
	}}
	traced := RunScenarioOpts(spec, RunOptions{Parallel: 2, Trace: tr})
	plain := RunScenarioOpts(spec, RunOptions{})
	if traced.Format() != plain.Format() {
		t.Errorf("tracing changed the figure:\n%s\nvs\n%s", traced.Format(), plain.Format())
	}
	files := tr.Files()
	if len(files) != 4 { // 2 variants × 2 tokens
		t.Fatalf("wrote %d trace files, want 4: %v", len(files), files)
	}
	for _, name := range files {
		if !strings.HasPrefix(name, "tandem-") {
			t.Errorf("trace file %q not scenario-prefixed", name)
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ptrace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Events) == 0 || d.Seen == 0 {
			t.Errorf("%s: empty capture", name)
		}
		if len(d.Events) >= ringCap {
			t.Errorf("%s: %d events fill the %d-event ring, so it may have overwritten some", name, len(d.Events), ringCap)
		}
	}

	spillDir := t.TempDir()
	spilled := &TraceRequest{Dir: spillDir, Config: tr.Config, Spill: true}
	RunScenarioOpts(spec, RunOptions{Parallel: 2, Trace: spilled})
	if got := spilled.Files(); len(got) != len(files) {
		t.Fatalf("spilled %d files, ring saved %d", len(got), len(files))
	}
	for _, name := range files {
		ring, spill := canonicalTrace(t, filepath.Join(dir, name)), canonicalTrace(t, filepath.Join(spillDir, name))
		if !bytes.Equal(ring, spill) {
			t.Errorf("%s: ring-saved and spilled traces differ (%d vs %d bytes)", name, len(ring), len(spill))
		}
	}
}

// canonicalTrace re-encodes a trace file with its packet ids relabelled
// (ptrace.CanonicalizePacketIDs): absolute ids come from a
// process-global counter, so two runs of one point differ only there.
// The encoding is byte-stable, so equal results mean equal files up to
// that relabelling.
func canonicalTrace(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ptrace.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ptrace.CanonicalizePacketIDs(d)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDirFailureIsReported: a trace directory that cannot be
// created (here, one under a regular file) is an error naming the path
// on the request, never a panic, and the run completes untraced with
// the figure of the untraced run.
func TestTraceDirFailureIsReported(t *testing.T) {
	t.Parallel()
	spec := reducedTandem()
	file := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "traces")
	plain := RunScenarioOpts(spec, RunOptions{}).Format()
	for _, spill := range []bool{false, true} {
		tr := &TraceRequest{Dir: dir, Spill: spill}
		if traced := RunScenarioOpts(spec, RunOptions{Parallel: 2, Trace: tr}).Format(); traced != plain {
			t.Errorf("spill=%v: a failed trace changed the figure:\n%s\nvs\n%s", spill, traced, plain)
		}
		if err := tr.Err(); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("spill=%v: Err() = %v, want an error naming %s", spill, err, dir)
		}
		if files := tr.Files(); len(files) != 0 {
			t.Errorf("spill=%v: files %v recorded for a failed trace", spill, files)
		}
	}

	// The per-job paths, reached when the directory goes bad after the
	// run started: a spill that cannot open leaves the job untraced, and
	// a ring save that cannot publish is filed, not thrown.
	for _, spill := range []bool{false, true} {
		ctx := &Ctx{Trace: &TraceRequest{Dir: dir, Spill: spill}}
		rec := ctx.NewRecorder()
		if (rec == nil) != spill {
			t.Errorf("spill=%v: NewRecorder = %v", spill, rec)
		}
		ctx.Finish("p", rec, sim.New(1), topology.ShardStats{}, 0, time.Time{})
		if err := ctx.Trace.Err(); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("spill=%v: per-job Err() = %v, want an error naming %s", spill, err, dir)
		}
	}
}

// TestTandemTraceSpill drives the spill plumbing end to end: with
// Spill set, every trace file holds the *complete* filtered capture —
// past the tiny configured ring — written atomically (no temporary
// files survive), and the figure stays byte-identical to the untraced
// run.
func TestTandemTraceSpill(t *testing.T) {
	t.Parallel()
	spec := reducedTandem()
	dir := t.TempDir()
	const ringCap = 512 // far below the runs' verdict counts
	tr := &TraceRequest{Dir: dir, Config: ptrace.Config{
		Capacity: ringCap, Kinds: ptrace.VerdictKinds(),
	}, Spill: true}
	traced := RunScenarioOpts(spec, RunOptions{Parallel: 2, Trace: tr})
	plain := RunScenarioOpts(spec, RunOptions{})
	if traced.Format() != plain.Format() {
		t.Errorf("spill tracing changed the figure:\n%s\nvs\n%s", traced.Format(), plain.Format())
	}
	files := tr.Files()
	if len(files) != 4 {
		t.Fatalf("wrote %d trace files, want 4: %v", len(files), files)
	}
	spilledPastCap := false
	for _, name := range files {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ptrace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Events) > ringCap {
			spilledPastCap = true
		}
		// The spill is the complete filtered capture: with no sampling
		// configured, every filter-surviving event must be present, and
		// timestamps must be monotone (stream order).
		var last units.Time
		for i, e := range d.Events {
			if e.T < last {
				t.Fatalf("%s: event %d out of order", name, i)
			}
			last = e.T
		}
	}
	if !spilledPastCap {
		t.Error("no capture exceeded the ring capacity; spill bound untested")
	}
	// Atomicity: only the four sealed .ptrace files remain — no .spill-*
	// or .ptrace-* temporaries.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("trace dir holds %v, want exactly the 4 sealed traces", names)
	}
}

// TestRunDigestMatchesSealedTrace: the .digest a traced run writes is
// folded while the trace is encoded, never read back from the file, so
// it must be exactly the digest of the sealed file — byte for byte what
// `dstrace` computes from it. It covers ring-saved and spilled traces,
// with and without sampling and a pinned head, on the tandem's
// conditioner verdicts and every event kind of a batched nflow point.
// The ring is small enough to overwrite, so a digest of the events
// emitted rather than the events written would differ too.
func TestRunDigestMatchesSealedTrace(t *testing.T) {
	t.Parallel()
	tandem := reducedTandem()
	tandem.Tokens = tandem.Tokens[:1]
	nflow := NFlowSweepSpec()
	nflow.Ns, nflow.Batch = []int{4}, true
	for _, spill := range []bool{false, true} {
		for _, sample := range []int{1, 3} {
			for _, head := range []int{0, 512} {
				for _, s := range []Scenario{tandem, nflow} {
					cfg := ptrace.Config{Capacity: 4096, Head: head, Sample: sample}
					if s.Name() == "tandem" {
						cfg.Kinds = ptrace.VerdictKinds()
					}
					dir := t.TempDir()
					tr := &TraceRequest{Dir: dir, Config: cfg, Spill: spill, Digest: true}
					RunScenarioOpts(s, RunOptions{Parallel: 2, Trace: tr})
					if err := tr.Err(); err != nil {
						t.Fatal(err)
					}
					files := tr.Files()
					if len(files) != len(s.Jobs()) {
						t.Fatalf("%s spill=%v: %d trace files for %d jobs", s.Name(), spill, len(files), len(s.Jobs()))
					}
					for _, name := range files {
						path := filepath.Join(dir, name)
						got, err := os.ReadFile(strings.TrimSuffix(path, ".ptrace") + ".digest")
						if err != nil {
							t.Fatal(err)
						}
						if want := sealedDigest(t, path); !bytes.Equal(got, want) {
							g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
							i := 0
							for i < len(g) && i < len(w) && g[i] == w[i] {
								i++
							}
							t.Errorf("%s spill=%v sample=%d head=%d: the run's digest is not the sealed file's; first difference at line %d:\n%q\nwant\n%q",
								name, spill, sample, head, i+1, strings.Join(g[i:min(i+3, len(g))], "\n"), strings.Join(w[i:min(i+3, len(w))], "\n"))
						}
					}
				}
			}
		}
	}
}

// sealedDigest is what dstrace reads off a sealed trace: one streaming
// pass to a Summary, serialized as a .digest.
func sealedDigest(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, _, err := ptrace.AnalyzeStream(f, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var buf bytes.Buffer
	if err := ptrace.WriteSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
