package scenfile

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/ptrace"
)

// The parity harness: a checked-in scenario file must be a faithful
// spelling of its Go preset. Compile's contract — the preset shapes
// compile to the preset's own spec type, so equal spec values give
// equal output bytes — is checked as stated: the compiled spec must
// DeepEqual the preset in every field but the registry key. The file
// and the preset are then both run traced on the Scaled(4) grid and
// must produce byte-identical figures, identical per-flow stats, and
// identical canonicalized traces. They register under different names,
// so trace file names differ by exactly that prefix — everything after
// it must match.

// runTraced executes s with per-point traces into a temp dir and
// returns the figure plus the trace dir.
func runTraced(t *testing.T, s experiment.Scenario) (*experiment.Figure, string) {
	t.Helper()
	dir := t.TempDir()
	tr := &experiment.TraceRequest{Dir: dir, Config: ptrace.Config{
		Capacity: 1 << 17, Head: 4096, Sample: 1,
	}}
	fig := experiment.RunScenarioOpts(s, experiment.RunOptions{Parallel: 2, Trace: tr})
	return fig, dir
}

// tracesByLabel maps "<label>.ptrace" (scenario prefix stripped) to
// the canonicalized decoded trace.
func tracesByLabel(t *testing.T, dir, scenario string) map[string]*ptrace.Data {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*ptrace.Data{}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".ptrace") {
			continue
		}
		label := strings.TrimPrefix(name, scenario+"-")
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ptrace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ptrace.CanonicalizePacketIDs(d)
		out[label] = d
	}
	return out
}

// rekeyed returns the compiled spec under the given registry key.
func rekeyed(t *testing.T, s experiment.Scenario, key string) experiment.Scenario {
	t.Helper()
	switch spec := s.(type) {
	case experiment.MultiFlowSpec:
		spec.Key = key
		return spec
	case experiment.TandemSpec:
		spec.Key = key
		return spec
	}
	t.Fatalf("file compiled to %T, not a preset spec type", s)
	return nil
}

// assertParity compares the file-compiled spec with the preset, then
// runs both and compares figures, per-flow stats, and canonicalized
// traces.
func assertParity(t *testing.T, preset experiment.Scenario, path string) {
	t.Helper()
	file, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rekeyed(t, file, preset.Name()); !reflect.DeepEqual(got, preset) {
		t.Errorf("compiled spec diverged from the preset:\nfile:   %+v\npreset: %+v", got, preset)
	}
	preset = preset.(experiment.Scalable).Scaled(4)
	file = file.(experiment.Scalable).Scaled(4)

	figP, dirP := runTraced(t, preset)
	figF, dirF := runTraced(t, file)

	if got, want := figF.Format(), figP.Format(); got != want {
		t.Errorf("figure text diverged:\nfile:\n%s\npreset:\n%s", got, want)
	}
	if !reflect.DeepEqual(figF.Series, figP.Series) {
		t.Errorf("per-point stats diverged:\nfile:   %+v\npreset: %+v", figF.Series, figP.Series)
	}

	trP := tracesByLabel(t, dirP, preset.Name())
	trF := tracesByLabel(t, dirF, file.Name())
	if len(trP) == 0 {
		t.Fatal("preset run wrote no traces")
	}
	if len(trF) != len(trP) {
		t.Fatalf("trace count diverged: file %d, preset %d", len(trF), len(trP))
	}
	for label, dp := range trP {
		df, ok := trF[label]
		if !ok {
			t.Errorf("file run missing trace %q", label)
			continue
		}
		if !reflect.DeepEqual(df.Hops, dp.Hops) {
			t.Errorf("%s: hop tables diverged: %v vs %v", label, df.Hops, dp.Hops)
		}
		if !reflect.DeepEqual(df.Events, dp.Events) {
			t.Errorf("%s: canonicalized events diverged (%d vs %d events)",
				label, len(df.Events), len(dp.Events))
		}
	}
}

func TestNFlowFileParity(t *testing.T) {
	assertParity(t, experiment.NFlowSweepSpec(), "testdata/nflow.scenario.json")
}

func TestTandemFileParity(t *testing.T) {
	assertParity(t, experiment.TandemSweepSpec(), "testdata/tandem.scenario.json")
}
