package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

//go:embed golden/*.json
var goldenFS embed.FS

// Golden pins a workload's outputs at the default seed: the SHA-256 of
// the assembled figure text, one digest per operation (grid point, or
// sealed trace file), and the physics counters read in the traced
// run's re-drive. Nothing in it belongs to the engine: no event count,
// packet id or queue geometry.
type Golden struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	TextSHA256 string   `json:"text_sha256"`
	Ops        []string `json:"ops"`
	Physics    []string `json:"physics"`
}

func loadGolden(workload string) (*Golden, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return &g, nil
}

// writeGolden stores g under dir (the benchmark's source directory).
func writeGolden(dir string, g *Golden) error {
	return writeJSONFile(filepath.Join(dir, "golden", g.Workload+".json"), g)
}

// check compares one repetition against the golden and returns how many
// operations do not match (at least 1 when only the figure text moved).
func (g *Golden) check(out *repOutput) (failed int, why string) {
	if len(out.ops) != len(g.Ops) {
		n := len(out.ops)
		if len(g.Ops) > n {
			n = len(g.Ops)
		}
		return n, fmt.Sprintf("%d operations, golden has %d", len(out.ops), len(g.Ops))
	}
	for i, op := range out.ops {
		if op != g.Ops[i] {
			failed++
			why = fmt.Sprintf("operation %d digest %s, golden %s", i, op, g.Ops[i])
		}
	}
	if failed == 0 && textSHA(out.text) != g.TextSHA256 {
		return 1, "figure text differs from golden"
	}
	return failed, why
}

func samePhysics(got, want []string) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d physics lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return false, fmt.Sprintf("physics %q, golden %q", got[i], want[i])
		}
	}
	return true, ""
}

// goldenDirOK reports whether dir looks like the benchmark's source
// directory, so -update-golden refuses to scatter files elsewhere.
func goldenDirOK(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, "golden"))
	return err == nil && st.IsDir()
}
