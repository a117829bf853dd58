package scenfile

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/ptrace"
)

// The parity harness: a checked-in scenario file must be a faithful
// spelling of its Go preset. compile's contract — the preset shapes
// compile through the preset's own parameter struct, so equal struct
// values give equal output bytes — is checked as stated: the struct the
// compiled grid was made from must DeepEqual the preset's in every field
// but the registry key. The file
// and the preset are then both run traced on the Scaled(4) grid and
// must produce byte-identical figures, identical per-flow stats, and
// byte-identical traces. They register under different names,
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
// the trace file's bytes.
func tracesByLabel(t *testing.T, dir, scenario string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".ptrace") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimPrefix(name, scenario+"-")] = b
	}
	return out
}

// rekeyed returns the parameter struct the compiled grid was made from,
// under the given registry key.
func rekeyed(t *testing.T, s experiment.Scenario, key string) any {
	t.Helper()
	switch spec := s.Grid().Params.(type) {
	case experiment.MultiFlowSpec:
		spec.Key = key
		return spec
	case experiment.TandemSpec:
		spec.Key = key
		return spec
	}
	t.Fatalf("file compiled from %T, not a preset spec type", s.Grid().Params)
	return nil
}

// assertParity compares the file-compiled spec with the preset, then
// runs both and compares figures, per-flow stats, and trace bytes.
func assertParity(t *testing.T, preset experiment.Scenario, path string) {
	t.Helper()
	file, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rekeyed(t, file, preset.Name()), preset.Grid().Params; !reflect.DeepEqual(got, want) {
		t.Errorf("compiled spec diverged from the preset:\nfile:   %+v\npreset: %+v", got, want)
	}
	preset = experiment.Scaled(preset, 4)
	file = experiment.Scaled(file, 4)

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
		if !bytes.Equal(df, dp) {
			t.Errorf("%s: traces diverged (%d vs %d bytes)", label, len(df), len(dp))
		}
	}
}

func TestNFlowFileParity(t *testing.T) {
	assertParity(t, experiment.Lookup("nflow"), "testdata/nflow.scenario.json")
}

func TestTandemFileParity(t *testing.T) {
	assertParity(t, experiment.Lookup("tandem"), "testdata/tandem.scenario.json")
}
