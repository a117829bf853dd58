package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The harness is the instrument later changes are judged with, and a
// change that claims a gain may not edit it. So it must not lean on
// anything the ROADMAP slates for removal or a move (items 2, 3, 5).
// This test walks the syntax tree of the harness's own non-test sources
// (comments excluded: prose may name what code may not).

// forbiddenNames may not appear as an identifier or selector anywhere.
var forbiddenNames = map[string]string{
	"BatchedPaced":          "the homogeneous batched source (item 2)",
	"flowHeap":              "the homogeneous batched source's heap (item 2)",
	"ResetIDs":              "process-global packet ids (item 3)",
	"CanonicalizePacketIDs": "process-global packet ids (item 3)",
	"NFlowSweepSpec":        "a Go preset with a scenario-file twin (item 2)",
	"NFlowWideSpec":         "a Go preset with a scenario-file twin (item 2)",
	"TandemSweepSpec":       "a Go preset with a scenario-file twin (item 2)",
	"NFlowFleetSpec":        "a Go preset with a scenario-file twin (item 2)",
	"At":                    "closure scheduling, Simulator.At (item 3)",
	"After":                 "closure scheduling, Simulator.After (item 3)",
	"Data":                  "the whole-capture trace form and its JSONL writer (item 2)",
	"Events":                "experiment.Point telemetry (item 5)",
	"VFlows":                "experiment.Point telemetry (item 5)",
	"HeapBytes":             "experiment.Point telemetry (item 5)",
	"RunMS":                 "experiment.Point telemetry (item 5)",
	"QRebases":              "experiment.Point telemetry (item 5)",
	"QWidth":                "experiment.Point telemetry (item 5)",
	"QOverflow":             "experiment.Point telemetry (item 5)",
}

// forbiddenInPtrace are package-level names of ptrace with a streaming
// replacement.
var forbiddenInPtrace = map[string]bool{"Analyze": true, "Read": true}

// statsOnly names are fields of experiment.Point and also of
// topology.ShardStats; the harness may read them from a ".Stats" /
// ".shard" value (the topology's own report), nowhere else.
var statsOnly = map[string]bool{"Shards": true, "StallRatio": true}

func TestHarnessAvoidsAPIsSlatedForRemoval(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	scanned := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		scanned++
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if why, bad := forbiddenNames[x.Name]; bad {
					t.Errorf("%s: %s — %s", fset.Position(x.Pos()), x.Name, why)
				}
			case *ast.SelectorExpr:
				name := x.Sel.Name
				if statsOnly[name] && !isStatsValue(x.X) {
					t.Errorf("%s: .%s read from something other than a topology ShardStats value", fset.Position(x.Pos()), name)
				}
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "ptrace" && forbiddenInPtrace[name] {
					t.Errorf("%s: ptrace.%s is slated for removal (item 2)", fset.Position(x.Pos()), name)
				}
			}
			return true
		})
	}
	if scanned < 8 {
		t.Fatalf("scanned %d harness files: run this test from the benchmark directory", scanned)
	}
}

// isStatsValue reports whether x is a selector ending in .Stats or
// .shard (where the harness keeps the topology's ShardStats).
func isStatsValue(x ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Stats" || sel.Sel.Name == "shard")
}
