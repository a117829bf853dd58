package scenfile

import (
	"os"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// mutate parses a known-good testdata file, applies edit to the raw
// JSON via string replacement, and returns the Parse error.
func parseMutated(t *testing.T, path, old, new string) error {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, old) {
		t.Fatalf("%s does not contain %q", path, old)
	}
	_, perr := Parse([]byte(strings.Replace(s, old, new, 1)))
	return perr
}

// TestValidationNamesOffendingField pins the reject-up-front contract:
// every schema violation is caught at parse time and the error names
// the field that caused it.
func TestValidationNamesOffendingField(t *testing.T) {
	const (
		nflow    = "testdata/nflow.scenario.json"
		tandem   = "testdata/tandem.scenario.json"
		dumbbell = "testdata/dumbbell.scenario.json"
	)
	cases := []struct {
		name, path, old, new, want string
	}{
		{"unknown link reference", dumbbell,
			`"to": "e-jit"`, `"to": "e-jitt"`,
			`graph.elements[15].to: unknown element "e-jitt"`},
		{"zero-rate policer", nflow,
			`"policer": {"rate_bps": 1300000`, `"policer": {"rate_bps": 0`,
			"multiflow.policer.rate_bps: policer rate must be positive"},
		{"zero-rate graph policer", dumbbell,
			`"name": "e-policer", "rate_bps": 1300000`, `"name": "e-policer", "rate_bps": 0`,
			`graph.elements[9].rate_bps: policer "e-policer" needs a positive rate`},
		{"unknown clip", nflow,
			`"clip": "lost"`, `"clip": "lots"`,
			`multiflow.clip: unknown clip "lots"`},
		{"unknown sched", nflow,
			`"sched": "priority"`, `"sched": "fancy"`,
			`multiflow.sched: unknown bottleneck scheduler "fancy"`},
		{"unknown shape", nflow,
			`"shape": "multiflow"`, `"shape": "ring"`,
			`shape: unknown shape "ring"`},
		{"shape/section mismatch", nflow,
			`"shape": "multiflow"`, `"shape": "tandem"`,
			`multiflow: section present but shape is "tandem"`},
		{"capability overclaim", dumbbell,
			`"shards": false`, `"shards": true`,
			"capabilities.shards: must be false"},
		{"capability underclaim", nflow,
			`"shards": true`, `"shards": false`,
			"capabilities.shards: must be true"},
		{"unknown field", nflow,
			`"be_load"`, `"be_loda"`,
			`unknown field "be_loda"`},
		{"bad sweep step", tandem,
			`"step_kbps": 100`, `"step_kbps": 0`,
			"tandem.token_sweep.step_kbps: sweep step must be positive"},
		{"poisson batch on source", dumbbell,
			`"model": "poisson", "rate_bps": 300000, "size": 1500, "flow": 1003, "dscp": "be"`,
			`"model": "poisson", "rate_bps": 300000, "size": 1500, "flow": 1003, "dscp": "be", "batch": 4`,
			"graph.elements[4].source.batch: poisson sources cannot be batched"},
		{"unknown dscp", dumbbell,
			`"mark": "ef", "to": "w-bneck"`, `"mark": "gold", "to": "w-bneck"`,
			`graph.elements[10].mark: unknown DSCP "gold"`},
		{"unknown sweep target", dumbbell,
			`"targets": ["e-policer", "w-policer"]`, `"targets": ["e-policer", "w-police"]`,
			`graph.sweep.targets[1]: "w-police" does not name a policer element`},
		{"unknown flow entry", dumbbell,
			`"flow": 2, "entry": "w-campus"`, `"flow": 2, "entry": "w-campus2"`,
			`graph.flows[1].entry: unknown element "w-campus2"`},
		// A source has no entry point: these three once passed validation
		// and panicked in Build (see runPoint).
		{"link into a source", dumbbell,
			`"to": "east-client"`, `"to": "core-cross"`,
			`graph.elements[0].to: "core-cross" is a source; sources take no input`},
		{"rule into a source", dumbbell,
			`{"name": "east", "flow": 1, "to": "e-access"}`, `{"name": "east", "flow": 1, "to": "core-cross"}`,
			`graph.elements[2].rules[0].to: "core-cross" is a source; sources take no input`},
		{"flow entry at a source", dumbbell,
			`"flow": 1, "entry": "e-campus"`, `"flow": 1, "entry": "core-cross"`,
			`graph.flows[0].entry: "core-cross" is a source; sources take no input`},
		// A wiring cycle once crashed Build's caller (a router into
		// itself overflows the stack) or ran with packets circulating
		// until the horizon.
		{"router wired into itself", dumbbell,
			`"name": "demux", "to": "sink"`, `"name": "demux", "to": "demux"`,
			`graph.elements[2].to: wiring cycle demux → demux`},
		{"policer wired back to its border", dumbbell,
			`"mark": "ef", "to": "e-bneck"`, `"mark": "ef", "to": "e-border"`,
			`graph.elements[11].rules[0].to: wiring cycle e-policer → e-border → e-policer`},
		{"core and demux wired into each other", dumbbell,
			`"name": "demux", "to": "sink"`, `"name": "demux", "to": "core"`,
			`graph.elements[3].to: wiring cycle demux → core → demux`},
		{"irrelevant knob rejected", dumbbell,
			`"name": "e-jit", "max_jitter_us": 5000`, `"name": "e-jit", "loss_p": 0.5, "max_jitter_us": 5000`,
			`graph.elements[13].loss_p: does not apply to kind "jitter"`},
		{"flow count beyond int32", nflow,
			`"flows": [1, 2,`, `"flows": [3000000000, 2,`,
			"multiflow.flows[0]: flow count must be in [1, 2147483647], got 3000000000"},
		{"bad version", nflow,
			`"version": 1`, `"version": 2`,
			"version: unsupported scenario file version 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := parseMutated(t, c.path, c.old, c.new)
			if err == nil {
				t.Fatal("mutation parsed cleanly")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q\ndoes not contain %q", err, c.want)
			}
		})
	}
}

// TestFleetValidation covers the mixture-class rules with a minimal
// fleet file (no fleet preset file is checked in, so build one here).
func TestFleetValidation(t *testing.T) {
	good := `{
  "version": 1, "name": "fleet-x", "id": "X", "title": "t", "shape": "fleet",
  "capabilities": {"shards": true, "bucket_width": true},
  "fleet": {
    "flows": [100],
    "classes": [
      {"name": "viewers", "clip": "lost", "enc_rate_bps": 1000000, "share": 0.85, "token_rate_bps": 1300000},
      {"name": "elephants", "source": "cbr", "clip": "dark", "enc_rate_bps": 1500000, "share": 0.15, "token_rate_bps": 1950000}
    ],
    "depth_bytes": 4500, "bottleneck_rate_bps": 13000000000, "sched": "priority",
    "be_load": 0.02, "seed": 2001, "truncate_us": 1000000, "start_window_us": 4000000
  }
}`
	if _, err := Parse([]byte(good)); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
	// bucket_width is a version-1 compatibility key: parsed, never read.
	if _, err := Parse([]byte(strings.Replace(good, `"bucket_width": true`, `"bucket_width": false`, 1))); err != nil {
		t.Errorf("bucket_width: false rejected: %v", err)
	}
	cases := []struct{ name, old, new, want string }{
		{"poisson mixture class",
			`"source": "cbr"`, `"source": "poisson"`,
			"fleet.classes[1].source: poisson sources cannot be batched in a mixture class"},
		{"unknown source model",
			`"source": "cbr"`, `"source": "onoff"`,
			`fleet.classes[1].source: unknown source model "onoff"`},
		{"shares must sum to 1",
			`"share": 0.15`, `"share": 0.25`,
			"fleet.classes: class shares must sum to 1"},
		{"duplicate class name",
			`"name": "elephants"`, `"name": "viewers"`,
			`fleet.classes[1].name: duplicate class name "viewers"`},
		{"zero token rate",
			`"token_rate_bps": 1950000`, `"token_rate_bps": 0`,
			"fleet.classes[1].token_rate_bps: policer rate must be positive"},
		{"flow count beyond int32",
			`"flows": [100]`, `"flows": [3000000000]`,
			"fleet.flows[0]: flow count must be in [1, 2147483647], got 3000000000"},
		// Counts the class split leaves a class empty with: a mixture
		// class of no flows cannot be built.
		{"3 flows leave the 0.15 class empty",
			`"flows": [100]`, `"flows": [3]`,
			`fleet.flows[0]: splitting 3 flows by share leaves class "elephants" (share 0.15) with none`},
		{"2 flows leave the 0.15 class empty",
			`"flows": [100]`, `"flows": [2]`,
			`fleet.flows[0]: splitting 2 flows by share leaves class "elephants" (share 0.15) with none`},
		{"1 flow leaves the 0.15 class empty",
			`"flows": [100]`, `"flows": [1]`,
			`fleet.flows[0]: splitting 1 flows by share leaves class "elephants" (share 0.15) with none`},
		{"an empty class at the second count",
			`"flows": [100]`, `"flows": [200, 3]`,
			`fleet.flows[1]: splitting 3 flows by share leaves class "elephants" (share 0.15) with none`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(strings.Replace(good, c.old, c.new, 1)))
			if err == nil {
				t.Fatal("mutation parsed cleanly")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q\ndoes not contain %q", err, c.want)
			}
		})
	}
	// At shares 0.1/0.9, 2 flows round the first class down to none.
	tenth := strings.NewReplacer(`"share": 0.85`, `"share": 0.1`, `"share": 0.15`, `"share": 0.9`,
		`"flows": [100]`, `"flows": [2]`).Replace(good)
	want := `fleet.flows[0]: splitting 2 flows by share leaves class "viewers" (share 0.1) with none`
	if _, err := Parse([]byte(tenth)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("shares 0.1/0.9 at 2 flows: error %v, want %q", err, want)
	}
	// The smallest count that leaves neither class empty still parses.
	if _, err := Parse([]byte(strings.Replace(good, `"flows": [100]`, `"flows": [4]`, 1))); err != nil {
		t.Errorf("4 flows rejected: %v", err)
	}
}

// TestFleetCompilesToPresetSpec pins the fleet shape's compilation
// target: the file above compiles to the same spec type the Go preset
// uses, with every field carried over.
func TestFleetCompilesToPresetSpec(t *testing.T) {
	f, err := Parse([]byte(`{
  "version": 1, "name": "fleet-x", "id": "X", "title": "t", "shape": "fleet",
  "capabilities": {"shards": true, "bucket_width": true},
  "fleet": {
    "flows": [100],
    "classes": [
      {"name": "viewers", "clip": "lost", "enc_rate_bps": 1000000, "share": 1.0, "token_rate_bps": 1300000}
    ],
    "depth_bytes": 4500, "bottleneck_rate_bps": 13000000000, "sched": "priority",
    "be_load": 0.02, "seed": 2001, "truncate_us": 1000000, "start_window_us": 4000000
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.compile()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "fleet-x" {
		t.Errorf("name %q", s.Name())
	}
	if !experiment.SupportsSharding(s) {
		t.Error("fleet spec lost shard capability")
	}
}
