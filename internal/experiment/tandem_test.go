package experiment

import (
	"bytes"
	"fmt"
	"io"
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
	spec := tandemSweepSpec()
	spec.Tokens = []units.BitRate{1100 * units.Kbps, 1400 * units.Kbps}
	spec.Runs = 1
	return spec
}

func TestTandemScenarioShape(t *testing.T) {
	t.Parallel()
	fig := tableRow("tandem").reference().fig
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
	if s.Grid().Thin == nil {
		t.Fatal("tandem is not Scalable")
	}
	sc := Scaled(tandemSweepSpec().Grid(), 3).Grid().Params.(TandemSpec)
	full := tandemSweepSpec()
	if len(sc.Tokens) >= len(full.Tokens) ||
		sc.Tokens[len(sc.Tokens)-1] != full.Tokens[len(full.Tokens)-1] {
		t.Errorf("Scaled grid wrong: %v", sc.Tokens)
	}
}

// TestTandemTraceFiles drives the dsbench -trace plumbing end to end:
// a traced run on two workers writes one readable .ptrace per grid
// point, and its ring is large enough that none overwrote.
func TestTandemTraceFiles(t *testing.T) {
	t.Parallel()
	for name, tr := range traceTandem(t, false) {
		if len(tr.d.Events) >= tandemRingCap {
			t.Errorf("%s: %d events fill the %d-event ring, so it may have overwritten some", name, len(tr.d.Events), tandemRingCap)
		}
	}
}

// TestTandemTraceSpill: the tandem points spilled give the ring save's
// files byte for byte (with no sampling and a ring that overwrote
// nothing, ring save and spill are one capture through one writer), and
// as the spill's ring is far below the verdict counts, they show that a
// spill holds the complete capture, in time order. The spill runs
// serially and the ring save on two workers: a run's packet ids,
// numbered by its own pool, do not depend on what the worker pool runs
// beside it.
func TestTandemTraceSpill(t *testing.T) {
	t.Parallel()
	ring, spilled := traceTandem(t, false), traceTandem(t, true)
	spilledPastCap := false
	for name, tr := range spilled {
		ev := tr.d.Events
		spilledPastCap = spilledPastCap || len(ev) > tandemSpillCap
		for i := 1; i < len(ev); i++ {
			if ev[i].T < ev[i-1].T {
				t.Fatalf("%s: event %d out of order", name, i)
			}
		}
		if !bytes.Equal(ring[name].raw, tr.raw) {
			t.Errorf("%s: ring-saved and spilled traces differ (%d vs %d bytes)", name, len(ring[name].raw), len(tr.raw))
		}
	}
	if !spilledPastCap {
		t.Error("no spilled capture exceeded the ring capacity; spill bound untested")
	}
}

// The tandem trace tests' ring sizes: the ring save's holds every
// verdict of a point, the spill's is far below them.
const tandemRingCap, tandemSpillCap = 1 << 15, 512

// traceTandem runs the tandem row with the video flow's verdicts
// traced, ring-saved on two workers or spilled serially, and checks
// what every traced run holds: the untraced figure, and one
// scenario-prefixed, non-empty trace per grid point, published
// atomically (no .spill-* or .ptrace-* temporary left). It returns the
// traces by file name.
func traceTandem(t *testing.T, spill bool) map[string]sealedTrace {
	t.Helper()
	row := tableRow("tandem")
	cfg := ptrace.Config{Capacity: tandemRingCap, Kinds: ptrace.VerdictKinds(), Flows: []packet.FlowID{topology.VideoFlow}}
	parallel := 2
	if spill {
		cfg.Capacity, parallel = tandemSpillCap, 1
	}
	tr := &TraceRequest{Dir: t.TempDir(), Config: cfg, Spill: spill}
	if traced, plain := RunScenarioOpts(row.s, RunOptions{Parallel: parallel, Trace: tr}).Format(), row.reference().fig.Format(); traced != plain {
		t.Errorf("spill=%v: tracing changed the figure:\n%s\nvs\n%s", spill, traced, plain)
	}
	files := tr.Files()
	if len(files) != 4 { // 2 variants × 2 tokens
		t.Fatalf("spill=%v: wrote %d trace files, want 4: %v", spill, len(files), files)
	}
	if ents, err := os.ReadDir(tr.Dir); err != nil || len(ents) != 4 {
		t.Errorf("spill=%v: trace dir holds %v (err %v), want exactly the 4 sealed traces", spill, ents, err)
	}
	traces := make(map[string]sealedTrace, len(files))
	for _, name := range files {
		raw, d := readTrace(t, filepath.Join(tr.Dir, name))
		if !strings.HasPrefix(name, "tandem-") {
			t.Errorf("trace file %q not scenario-prefixed", name)
		}
		if len(d.Events) == 0 || d.Seen == 0 {
			t.Errorf("%s: empty capture", name)
		}
		traces[name] = sealedTrace{raw, d}
	}
	return traces
}

// sealedTrace is a trace file's bytes and its capture.
type sealedTrace struct {
	raw []byte
	d   *ptrace.Data
}

// readTrace returns the bytes and the capture of the trace at path.
func readTrace(t *testing.T, path string) ([]byte, *ptrace.Data) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ptrace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return raw, d
}

// TestTraceDirFailureIsReported: a trace directory that cannot be
// created (here, one under a regular file) is an error naming the path
// on the request, never a panic, and the run completes untraced with
// the figure of the untraced run.
func TestTraceDirFailureIsReported(t *testing.T) {
	t.Parallel()
	row := tableRow("tandem")
	spec := row.s
	file := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "traces")
	plain := row.reference().fig.Format()
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

// TestRunDigestMatchesSealedTrace: the .digest a traced run writes is
// folded while the trace is encoded, never read back from the file, so
// it must be exactly the digest of the sealed file — byte for byte what
// `dstrace` computes from it. One traced run per spill mode pins the
// plumbing that writes each .digest beside its .ptrace. The spilled run
// keeps every event of the kinds the replays keep (the tandem's
// conditioner verdicts, every kind of a batched nflow point; unfiltered,
// a tandem point is 2.3 M events), and fresh clockless recorders, which
// keep each event's recorded time, replay it ring saved and spilled,
// with and without sampling and a pinned head. The ring is small enough
// to overwrite, so a digest of the events emitted rather than written
// would differ too.
func TestRunDigestMatchesSealedTrace(t *testing.T) {
	t.Parallel()
	tandem := reducedTandem()
	tandem.Tokens = tandem.Tokens[:1]
	nflow := nflowSweepSpec()
	nflow.Ns, nflow.Batch = []int{4}, true
	overwrote := false
	for _, s := range []Scenario{tandem.Grid(), nflow.Grid()} {
		var kinds uint32
		if s.Name() == "tandem" {
			kinds = ptrace.VerdictKinds()
		}
		digestedRun(t, s, ptrace.Config{Capacity: 4096, Head: 512, Sample: 3, Kinds: kinds}, false)
		for _, d := range digestedRun(t, s, ptrace.Config{Kinds: kinds}, true) {
			if kinds == 0 && uint64(len(d.Events)) != d.Seen {
				t.Fatalf("%s: the capture holds %d of the run's %d events", s.Name(), len(d.Events), d.Seen)
			}
			for _, spill := range []bool{false, true} {
				for _, sample := range []int{1, 3} {
					for _, head := range []int{0, 512} {
						rec := ptrace.NewRecorder(ptrace.Config{Capacity: 4096, Head: head, Sample: sample, Kinds: kinds})
						for _, h := range d.Hops {
							rec.Hop(h)
						}
						rec.DigestWrites()
						var sealed, folded bytes.Buffer
						if spill {
							rec.SpillTo(&sealed)
						}
						for _, e := range d.Events {
							rec.Emit(e)
						}
						err := rec.FinishSpill()
						if !spill {
							_, err = rec.WriteTo(&sealed)
						}
						if err == nil {
							err = ptrace.WriteSummary(&folded, rec.Summary())
						}
						if err != nil {
							t.Fatal(err)
						}
						overwrote = overwrote || rec.Overwritten() > 0
						compareDigests(t, fmt.Sprintf("%s replayed spill=%v sample=%d head=%d", s.Name(), spill, sample, head),
							folded.Bytes(), sealedDigest(t, s.Name(), &sealed))
					}
				}
			}
		}
	}
	if !overwrote {
		t.Error("no replayed ring overwrote, so the digest of a partial capture went untested")
	}
}

// digestedRun runs s traced with cfg and a digest, ring saved or
// spilled, checks every point's .digest against its sealed .ptrace, and
// returns the captures.
func digestedRun(t *testing.T, s Scenario, cfg ptrace.Config, spill bool) []*ptrace.Data {
	t.Helper()
	tr := &TraceRequest{Dir: t.TempDir(), Config: cfg, Spill: spill, Digest: true}
	RunScenarioOpts(s, RunOptions{Parallel: 2, Trace: tr})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	files := tr.Files()
	if len(files) != s.Grid().Points {
		t.Fatalf("%s spill=%v: %d trace files for %d grid points", s.Name(), spill, len(files), s.Grid().Points)
	}
	var captures []*ptrace.Data
	for _, name := range files {
		path := filepath.Join(tr.Dir, name)
		got, err := os.ReadFile(strings.TrimSuffix(path, ".ptrace") + ".digest")
		if err != nil {
			t.Fatal(err)
		}
		raw, d := readTrace(t, path)
		compareDigests(t, fmt.Sprintf("%s spill=%v", name, spill), got, sealedDigest(t, name, bytes.NewReader(raw)))
		captures = append(captures, d)
	}
	return captures
}

// compareDigests fails t where a folded digest is not the sealed one.
func compareDigests(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: the folded digest is not the sealed capture's:\n%s\nwant\n%s", label, got, want)
	}
}

// sealedDigest is what dstrace reads off a sealed trace: one streaming
// pass to a Summary, serialized as a .digest.
func sealedDigest(t *testing.T, name string, r io.Reader) []byte {
	t.Helper()
	s, _, err := ptrace.AnalyzeStream(r, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := ptrace.WriteSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
