package scenfile

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/ptrace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDumbbellGoldenDigest pins the dumbbell scenario — the workload
// that exists only as a config file — to a stored behavioral digest.
// The trace config matches the dsbench defaults, so the very same
// golden gates CI runs through `dstrace -compare-golden`. Scaled(1000)
// thins the sweep to its endpoints; the digest pins the first
// (tightest-contract) point.
func TestDumbbellGoldenDigest(t *testing.T) {
	s, err := LoadScenario("testdata/dumbbell.scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	scaled := experiment.Scaled(s, 1000)
	dir := t.TempDir()
	tr := &experiment.TraceRequest{Dir: dir, Config: ptrace.Config{
		Capacity: 1 << 17, Head: 4096, Sample: 1,
	}, Digest: true}
	fig := experiment.RunScenarioOpts(scaled, experiment.RunOptions{Parallel: 2, Trace: tr})
	if len(fig.Series) == 0 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}

	got, err := os.ReadFile(filepath.Join(dir, "dumbbell-tok1000000.digest"))
	if err != nil {
		t.Fatalf("run produced no digest: %v", err)
	}
	golden := filepath.Join("testdata", "dumbbell.digest")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dumbbell digest diverged from golden (rerun with -update if intended)\ngot %d bytes, want %d", len(got), len(want))
	}

	// The digest must round-trip through the gate's reader and compare
	// clean against itself under zero thresholds.
	gs, err := ptrace.ReadSummary(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ptrace.ReadSummary(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if d := ptrace.CompareSummaries(ws, gs, ptrace.Thresholds{}); !d.Clean() {
		t.Errorf("digest not clean vs golden:\n%s", d.Format(10))
	}
}

// TestDumbbellCompiles exercises the load entry point: the dumbbell
// file compiles under its own name without entering the registry, so a
// second load of the same file compiles again instead of colliding, and
// the compiled scenario correctly refuses the shard knob (a graph point
// is one unpartitioned simulator) and honors -scale.
func TestDumbbellCompiles(t *testing.T) {
	for i := 0; i < 2; i++ {
		s, err := LoadScenario("testdata/dumbbell.scenario.json")
		if err != nil {
			t.Fatalf("load %d: %v", i+1, err)
		}
		if s.Name() != "dumbbell" {
			t.Errorf("compiled as %q, want dumbbell", s.Name())
		}
		if s.Grid().Shards {
			t.Error("graph scenario claims shard support")
		}
		if s.Grid().Thin == nil {
			t.Error("graph scenario does not honor -scale")
		}
	}
	if experiment.Lookup("dumbbell") != nil {
		t.Error("loading a scenario file wrote it into the registry")
	}
}
