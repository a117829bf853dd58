package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

func TestResultFileRoundTrip(t *testing.T) {
	rf := &ResultFile{Schema: resultSchema, Protocol: newProtocol(2001, 10, true),
		Workloads: []WorkloadResult{{
			Name: "fleet-mix", Reps: 9, Attempted: 12, Failed: 0, Correct: true, Digest: "abc",
			Notes:    []string{"a note"},
			EndToEnd: map[string]Measurement{"wall_s": {"s", summarize([]float64{1.5, 1.25, 1.75})}, "peak_rss_mb": {"MB", exact(65.5)}},
			PerLayer: map[string]Measurement{"sim.events": {"count", exact(5350964)}},
		}}}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeJSONFile(path, rf); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rf) {
		t.Errorf("round trip changed the result file:\n got %+v\nwant %+v", got, rf)
	}

	rf.Schema = resultSchema + 1
	if err := writeJSONFile(path, rf); err != nil {
		t.Fatal(err)
	}
	if _, err := readResultFile(path); err == nil {
		t.Error("a result file of another schema must be refused")
	}
}

func TestDriverOutputSelectsMetricSet(t *testing.T) {
	r := &WorkloadResult{Correct: true, Attempted: 5,
		EndToEnd: map[string]Measurement{"wall_s": {"s", summarize([]float64{1, 2, 3})}},
		PerLayer: map[string]Measurement{"sim.events": {"count", exact(7)}}}
	for _, trace := range []bool{false, true} {
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		line := driverOutput(r, trace)
		if len(line.Metrics) != len(specs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(specs))
		}
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("driver line keys = %s, want exactly correct, attempted, failed, metrics", data)
		}
	}
	if got := driverOutput(r, false).Metrics["wall_s"]; got.Value != 2 || got.Unit != "s" {
		t.Errorf("wall_s = %+v, want the median 2 s", got)
	}
}
