package ptrace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/units"
)

// TestCompareSelfIsClean pins the self-comparison contract on the real
// tandem capture: a summary diffed against itself has no deltas and no
// breaches at the strictest (zero) thresholds.
func TestCompareSelfIsClean(t *testing.T) {
	s, _, err := ptrace.AnalyzeStream(bytes.NewReader(tandemSeed()), units.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := ptrace.CompareSummaries(s, s, ptrace.Thresholds{})
	if !d.Clean() || d.Breaches != 0 {
		t.Fatalf("self-compare not clean: %d breaches\n%s", d.Breaches, d.Format(0))
	}
	if d.HopsCompared == 0 || d.FlowsCompared == 0 {
		t.Errorf("nothing compared: %d hops, %d flows", d.HopsCompared, d.FlowsCompared)
	}
	if !strings.Contains(d.Format(0), "no behavioral deltas") {
		t.Errorf("clean diff renders without the clean verdict:\n%s", d.Format(0))
	}
}

// TestCompareThresholds pins the breach semantics: exact gates catch
// any count shift, relative tolerance absorbs proportional drift, and
// the absolute time floor silences sub-floor delay jitter that a
// relative gate alone would trip on.
func TestCompareThresholds(t *testing.T) {
	base := func() *ptrace.Summary {
		return &ptrace.Summary{
			Hops: []ptrace.HopStats{{
				Name: "border", Drops: 100,
				Residence: ptrace.Quantiles{N: 50, P50: units.Millisecond, P99: 2 * units.Millisecond},
			}},
			Flows: []ptrace.FlowStats{{Flow: 7, Delivered: 1000}},
		}
	}

	a, b := base(), base()
	b.Hops[0].Drops = 103
	b.Hops[0].Residence.P50 += 10 * units.Microsecond

	// Exact: both the count shift and the delay jitter breach.
	d := ptrace.CompareSummaries(a, b, ptrace.Thresholds{})
	if d.Breaches != 2 || !d.Hops[0].Breach {
		t.Errorf("exact gate: %d field breaches, want 2\n%s", d.Breaches, d.Format(0))
	}
	if got := len(d.Hops[0].Fields); got != 2 {
		t.Errorf("exact gate: %d differing fields, want 2 (drops, res-p50)", got)
	}

	// 5%% relative tolerance absorbs the 3%% drop shift; the delay
	// delta (1%%) is also inside it.
	d = ptrace.CompareSummaries(a, b, ptrace.Thresholds{Rel: 0.05})
	if d.Breaches != 0 {
		t.Errorf("5%% tolerance still breaches:\n%s", d.Format(0))
	}

	// 0.5%% relative tolerance catches the drops again; the 10 µs
	// delay delta (1%% of 1 ms) breaches too unless the absolute floor
	// covers it.
	d = ptrace.CompareSummaries(a, b, ptrace.Thresholds{Rel: 0.005})
	if d.Breaches != 2 {
		t.Errorf("0.5%% tolerance: %d field breaches, want 2", d.Breaches)
	}
	var fields []string
	for _, f := range d.Hops[0].Fields {
		if f.Breach {
			fields = append(fields, f.Field)
		}
	}
	if len(fields) != 2 {
		t.Errorf("0.5%% tolerance: breaching fields %v, want [drops res-p50]", fields)
	}
	d = ptrace.CompareSummaries(a, b, ptrace.Thresholds{Rel: 0.005, AbsTime: 20 * units.Microsecond})
	fields = fields[:0]
	for _, f := range d.Hops[0].Fields {
		if f.Breach {
			fields = append(fields, f.Field)
		}
	}
	if len(fields) != 1 || fields[0] != "drops" {
		t.Errorf("abs floor: breaching fields %v, want [drops]", fields)
	}
}

// TestCompareMissingEntities pins that a hop or flow present in only
// one run is always a breach, whatever the thresholds.
func TestCompareMissingEntities(t *testing.T) {
	a := &ptrace.Summary{
		Hops:  []ptrace.HopStats{{Name: "border"}, {Name: "ghost"}},
		Flows: []ptrace.FlowStats{{Flow: 7}},
	}
	b := &ptrace.Summary{
		Hops:  []ptrace.HopStats{{Name: "border"}},
		Flows: []ptrace.FlowStats{{Flow: 7}, {Flow: 9}},
	}
	d := ptrace.CompareSummaries(a, b, ptrace.Thresholds{Rel: 1e9})
	if d.Breaches != 2 {
		t.Fatalf("%d breaches, want 2 (missing hop + extra flow)\n%s", d.Breaches, d.Format(0))
	}
	out := d.Format(0)
	if !strings.Contains(out, "only in a") || !strings.Contains(out, "only in b") {
		t.Errorf("presence deltas not rendered:\n%s", out)
	}
}
