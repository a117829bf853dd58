package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := MetricSpec{Name: "wall_s", Better: "lower", Bound: 0.25, SameSeed: 0.08}
	higher := MetricSpec{Name: "rate", Better: "higher", Bound: 0.25, SameSeed: 0.08}
	steady := summarize([]float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99})
	noisy := summarize([]float64{1.00, 1.30, 0.80, 1.00, 1.25, 0.85, 1.00, 1.20, 0.90})
	scale := func(d Dist, k float64) Dist {
		xs := make([]float64, len(d.Samples))
		for i, x := range d.Samples {
			xs[i] = x * k
		}
		return summarize(xs)
	}
	cases := []struct {
		name     string
		spec     MetricSpec
		old, cur Dist
		want     string
	}{
		{"within the bound", lower, steady, scale(steady, 1.05), verdictOK},
		{"beyond the bound", lower, steady, scale(steady, 1.10), verdictWorse},
		{"gain beyond the bound", lower, steady, scale(steady, 0.85), verdictBetter},
		{"higher is better: a drop is worse", higher, steady, scale(steady, 0.90), verdictWorse},
		{"higher is better: a rise is not", higher, steady, scale(steady, 1.10), verdictBetter},
		{"old spread wider than the bound: unresolved, not unchanged", lower, noisy, scale(noisy, 1.0), verdictUnresolved},
		{"old spread wide, small gain: still unresolved", lower, noisy, scale(noisy, 0.95), verdictUnresolved},
		{"old spread wide, but every new run beats every old one", lower, noisy, scale(noisy, 0.5), verdictBetter},
		{"old spread wide never hides a regression", lower, noisy, scale(noisy, 1.2), verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeExactCounts(t *testing.T) {
	if got := judgeExact(exact(1654041), exact(1654041)); got != verdictOK {
		t.Errorf("equal counts: %q", got)
	}
	// One event in 1.6 million is far inside any noise bound, and still a
	// change of the program.
	if got := judgeExact(exact(1654041), exact(1654042)); got != verdictChanged {
		t.Errorf("counts differing by one: %q, want %q", got, verdictChanged)
	}
}

func synthetic(wall []float64, events float64, failed int) *ResultFile {
	return &ResultFile{Schema: resultSchema, Protocol: Protocol{Seed: 2001, Seconds: 10, GOMAXPROCS: 2},
		Workloads: []WorkloadResult{{
			Name: "qbone-figs", Attempted: 40, Failed: failed, Correct: failed == 0,
			EndToEnd: map[string]Measurement{"wall_s": {"s", summarize(wall)}},
			PerLayer: map[string]Measurement{"sim.events": {"count", exact(events)}},
		}}}
}

func TestCompareResultsExitCode(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99}
	slow := make([]float64, len(base))
	for i, x := range base {
		slow[i] = x * 1.2
	}
	var out bytes.Buffer
	if code := compareResults(&out, synthetic(base, 100, 0), synthetic(base, 101, 0)); code != 0 {
		t.Errorf("same timings: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictChanged) {
		t.Errorf("a moved exact count must be reported as %q:\n%s", verdictChanged, out.String())
	}
	out.Reset()
	if code := compareResults(&out, synthetic(base, 100, 0), synthetic(slow, 100, 0)); code != 1 {
		t.Errorf("20%% slower: exit %d, want 1\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, synthetic(base, 100, 0), synthetic(base, 100, 3)); code != 1 {
		t.Errorf("new failed operations: exit %d, want 1\n%s", code, out.String())
	}
}
