package scenfile

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzScenarioFile holds the parser to two properties on arbitrary
// bytes: it never panics, and any input it accepts survives a full
// parse → compile → re-emit → parse round trip with the re-parsed
// file equal to the first (so Marshal is a faithful canonical form
// and compilation cannot trip over an input validation admitted).
func FuzzScenarioFile(f *testing.F) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Wires into a source element, which validation must refuse: Build
	// cannot resolve them.
	dumbbell, err := os.ReadFile(filepath.Join("testdata", "dumbbell.scenario.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, wire := range [][2]string{
		{`"to": "east-client"`, `"to": "core-cross"`},
		{`"flow": 1, "to": "e-access"`, `"flow": 1, "to": "core-cross"`},
		{`"entry": "e-campus"`, `"entry": "core-cross"`},
	} {
		f.Add([]byte(strings.Replace(string(dumbbell), wire[0], wire[1], 1)))
	}
	// Wiring cycles, which validation must refuse: a router into itself,
	// a policer back to its border router, two elements into each other.
	for _, wire := range [][2]string{
		{`"name": "demux", "to": "sink"`, `"name": "demux", "to": "demux"`},
		{`"mark": "ef", "to": "e-bneck"`, `"mark": "ef", "to": "e-border"`},
		{`"name": "demux", "to": "sink"`, `"name": "demux", "to": "core"`},
	} {
		f.Add([]byte(strings.Replace(string(dumbbell), wire[0], wire[1], 1)))
	}
	// Flow ids past 32 bits, which validation must refuse: they would
	// wrap onto small ones.
	for _, wide := range [][2]string{
		{`"flow": 2, "entry": "w-campus"`, `"flow": 4294967297, "entry": "w-campus"`},
		{`{"name": "west", "flow": 2, "to": "w-access"}`, `{"name": "west", "flow": 4294967297, "to": "w-access"}`},
		{`"model": "poisson", "rate_bps": 300000, "size": 1500, "flow": 1003, "dscp": "be"`,
			`"model": "cbr", "rate_bps": 300000, "size": 1500, "flow": 4294967290, "dscp": "be", "batch": 7`},
	} {
		f.Add([]byte(strings.Replace(string(dumbbell), wide[0], wide[1], 1)))
	}
	f.Add([]byte(`{"version": 1, "name": "x", "shape": "tandem"}`))
	f.Add([]byte(`{]`))
	// A flow count past the int32 the batched source indexes flows with.
	f.Add([]byte(`{"version": 1, "name": "x", "id": "X", "title": "t", "shape": "fleet",
  "capabilities": {"shards": true}, "fleet": {"flows": [3000000000],
  "classes": [{"name": "v", "clip": "lost", "enc_rate_bps": 1000000, "share": 1, "token_rate_bps": 1300000}],
  "depth_bytes": 4500, "bottleneck_rate_bps": 13000000000, "sched": "priority"}}`))
	// Seed counts at and past the cap on tandem.runs.
	tandem, err := os.ReadFile(filepath.Join("testdata", "tandem.scenario.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, runs := range []string{"100", "101", "3000000000"} {
		f.Add([]byte(strings.Replace(string(tandem), `"seed": 2001`, `"seed": 2001, "runs": `+runs, 1)))
	}
	// Flow counts the class split leaves a class empty with, which
	// validation must refuse: a mixture class of no flows cannot build.
	fleet := `{"version": 1, "name": "x", "id": "X", "title": "t", "shape": "fleet",
  "capabilities": {"shards": true}, "fleet": {"flows": %s,
  "classes": [{"name": "v", "clip": "lost", "enc_rate_bps": 1000000, "share": %s, "token_rate_bps": 1300000},
    {"name": "e", "clip": "dark", "enc_rate_bps": 1500000, "share": %s, "token_rate_bps": 1950000}],
  "depth_bytes": 4500, "bottleneck_rate_bps": 13000000000, "sched": "priority"}}`
	for _, c := range [][3]string{
		{"[3]", "0.85", "0.15"}, {"[1]", "0.85", "0.15"}, {"[2]", "0.85", "0.15"},
		{"[200, 3]", "0.85", "0.15"}, {"[2]", "0.1", "0.9"},
	} {
		f.Add([]byte(fmt.Sprintf(fleet, c[0], c[1], c[2])))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if _, err := parsed.compile(); err != nil {
			t.Fatalf("validated file failed to compile: %v", err)
		}
		out, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("validated file failed to marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(parsed, again) {
			t.Fatalf("round trip diverged:\nfirst:  %+v\nsecond: %+v", parsed, again)
		}
	})
}
