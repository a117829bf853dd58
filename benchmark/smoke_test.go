package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	in := func(xs []string, x string) bool {
		i := sort.SearchStrings(xs, x)
		return i < len(xs) && xs[i] == x
	}
	for _, g := range got {
		if !in(want, g) {
			t.Errorf("%s: %q is printed but not declared in BENCHMARK.json", what, g)
		}
	}
	for _, w := range want {
		if !in(got, w) {
			t.Errorf("%s: %q is declared in BENCHMARK.json but not printed", what, w)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON holds the harness's metric
// tables against BENCHMARK.json: names, units, directions and bounds.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	e2e, layers := specByName(endToEnd), specByName(perLayer)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range b.EndToEnd {
		s, ok := e2e[m.Name]
		if !ok || s.Unit != m.Unit || s.Better != m.Better || s.Bound != m.Bound {
			t.Errorf("end-to-end %q: BENCHMARK.json says %+v, the harness %+v", m.Name, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if s.SameSeed <= 0 || s.SameSeed > 0.10 || s.SameSeed > s.Bound {
			t.Errorf("end-to-end %q: same-seed bound %v must be in (0, 0.10] and no wider than the driver's %v", m.Name, s.SameSeed, s.Bound)
		}
	}
	for _, m := range b.PerLayer {
		s, ok := layers[m.Name]
		if !ok || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("per-layer %q: BENCHMARK.json says %+v, the harness %+v", m.Name, m, s)
		}
		if s.Moves == "" {
			t.Errorf("per-layer %q names no end-to-end metric it is expected to move", m.Name)
		}
	}
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range b.Workloads {
		want = append(want, w.Name)
		if wl := workloadByName(w.Name); wl != nil && wl.why != w.Why {
			t.Errorf("workload %q: why differs between BENCHMARK.json and the harness", w.Name)
		}
	}
	sameSet(t, "workloads", got, want)
	if len(b.Command) != 3 || b.Command[0] != "go" || b.Command[1] != "run" || b.Command[2] != "./benchmark" {
		t.Errorf("command = %v, want go run ./benchmark", b.Command)
	}
}

// TestSmokeEveryWorkload runs every workload at a toy size — one
// repetition, then the traced repetition, re-drive and a tiny kernel
// suite — and requires the set of metric names the driver would read
// to equal the set BENCHMARK.json declares, both directions, with every
// operation passing its self-consistency check.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var wantE2E, wantLayers []string
	for _, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range b.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, options{seed: 7, seconds: 0, trace: true, toy: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("attempted %d, failed %d, notes %v", res.Attempted, res.Failed, res.Notes)
			}
			for trace, want := range map[bool][]string{false: wantE2E, true: wantLayers} {
				var got []string
				for name := range driverOutput(res, trace).Metrics {
					got = append(got, name)
				}
				sameSet(t, w.name, got, append([]string(nil), want...))
			}
			for _, s := range endToEnd {
				if m := res.EndToEnd[s.Name]; !(m.Median > 0) {
					t.Errorf("end-to-end %s = %v: must never be 0", s.Name, m.Median)
				}
			}
			for _, name := range []string{"sim.events", "sim.run_s", "sim.ns_per_event", "link.tx_pkts",
				"queue.enqueued_pkts", "tokenbucket.passed_pkts", "client.delivered_pkts",
				"sim.kernel_dense_ns", "flowbatch.kernel_ns", "attr.coverage"} {
				if !(res.PerLayer[name].Median > 0) {
					t.Errorf("per-layer %s = %v, want > 0 on every workload", name, res.PerLayer[name].Median)
				}
			}
			if batched := w.name == "wide-batched" || w.shards > 0 || w.name == "fleet-mix"; batched != (res.PerLayer["flowbatch.emitted_pkts"].Median > 0) {
				t.Errorf("flowbatch.emitted_pkts = %v on %s", res.PerLayer["flowbatch.emitted_pkts"].Median, w.name)
			}
			if w.traceIO != (res.PerLayer["ptrace.events_kept"].Median > 0) {
				t.Errorf("ptrace.events_kept = %v on %s", res.PerLayer["ptrace.events_kept"].Median, w.name)
			}
		})
	}
}

// TestGoldensPinEveryWorkload checks the checked-in goldens are the
// generated kind, not the empty placeholders a fresh checkout of a new
// workload would start from.
func TestGoldensPinEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Error(err)
			continue
		}
		if g.Workload != w.name || len(g.TextSHA256) != 64 || len(g.Ops) == 0 || len(g.Physics) == 0 {
			t.Errorf("golden/%s.json is not a generated golden: %+v", w.name, g)
		}
	}
}

func specByName(specs []MetricSpec) map[string]MetricSpec {
	m := make(map[string]MetricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
