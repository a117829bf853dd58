package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row of -compare.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed" // an exact count that moved (per-layer: reported, never failed)
)

// judge applies the noise-aware rule to one end-to-end row, against the
// metric's same-seed bound. NEW is worse when its median is beyond OLD's
// by more than the bound, in the metric's bad direction. Where OLD's own inter-quartile spread is
// wider than the bound the row cannot be called unchanged: it is
// unresolved, unless every NEW repetition beats every OLD one.
func judge(spec MetricSpec, old, cur Dist) string {
	if old.Median == 0 {
		if cur.Median == 0 {
			return verdictOK
		}
		return verdictUnresolved
	}
	sign := 1.0 // positive delta = worse
	if spec.Better == "higher" {
		sign = -1
	}
	delta := sign * (cur.Median - old.Median) / old.Median
	if delta > spec.SameSeed {
		return verdictWorse
	}
	if old.spread() > spec.SameSeed {
		if beatsEvery(spec, old, cur) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if delta < -spec.SameSeed {
		return verdictBetter
	}
	return verdictOK
}

// beatsEvery reports whether every NEW repetition reads better than
// every OLD one.
func beatsEvery(spec MetricSpec, old, cur Dist) bool {
	if spec.Better == "higher" {
		return cur.Min > old.Max
	}
	return cur.Max < old.Min
}

// judgeExact compares a count: it repeats exactly for one program, so
// any difference is a change of the program, not noise.
func judgeExact(old, cur Dist) string {
	if old.Median == cur.Median {
		return verdictOK
	}
	return verdictChanged
}

// compareFiles prints one row per (metric, workload) pair and returns
// the process exit code: 1 if any end-to-end row is worse or any
// workload failed its correctness check, 2 on unreadable input.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readResultFile(oldPath)
	if err == nil {
		var cur *ResultFile
		if cur, err = readResultFile(newPath); err == nil {
			return compareResults(w, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareResults(w io.Writer, old, cur *ResultFile) int {
	if old.Protocol.Seconds != cur.Protocol.Seconds || old.Protocol.Seed != cur.Protocol.Seed ||
		old.Protocol.GOMAXPROCS != cur.Protocol.GOMAXPROCS {
		fmt.Fprintf(w, "warning: protocols differ (seed %d/%d, seconds %g/%g, GOMAXPROCS %d/%d): the bounds assume one seed and one protocol\n",
			old.Protocol.Seed, cur.Protocol.Seed, old.Protocol.Seconds, cur.Protocol.Seconds,
			old.Protocol.GOMAXPROCS, cur.Protocol.GOMAXPROCS)
	}
	oldBy := map[string]*WorkloadResult{}
	for i := range old.Workloads {
		oldBy[old.Workloads[i].Name] = &old.Workloads[i]
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-26s %-5s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median", "old p25-p75", "new median", "new p25-p75", "delta", "bound", "verdict")
	for i := range cur.Workloads {
		n := &cur.Workloads[i]
		o := oldBy[n.Name]
		if o == nil {
			fmt.Fprintf(w, "%-14s only in NEW\n", n.Name)
			continue
		}
		if n.Failed > 0 && n.Failed > o.Failed {
			worse++
			fmt.Fprintf(w, "%-14s %-26s %-5s %12d %12s %12d %12s %8s %6s  %s\n", n.Name, "failed operations", "count",
				o.Failed, "", n.Failed, "", "", "any", verdictWorse)
		}
		for _, spec := range endToEnd {
			a, b := o.EndToEnd[spec.Name], n.EndToEnd[spec.Name]
			v := judge(spec, a.Dist, b.Dist)
			if v == verdictWorse {
				worse++
			}
			printRow(w, n.Name, spec, a.Dist, b.Dist, fmt.Sprintf("%.0f%%", spec.SameSeed*100), v)
		}
		if o.PerLayer == nil || n.PerLayer == nil {
			continue
		}
		for _, spec := range perLayer {
			a, b := o.PerLayer[spec.Name], n.PerLayer[spec.Name]
			v := ""
			if spec.Exact {
				v = judgeExact(a.Dist, b.Dist)
			}
			printRow(w, n.Name, spec, a.Dist, b.Dist, "-", v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "\n%d row(s) worse than the bound\n", worse)
		return 1
	}
	fmt.Fprintln(w, "\nno row worse than its bound")
	return 0
}

func printRow(w io.Writer, workload string, spec MetricSpec, a, b Dist, bound, verdict string) {
	delta := "-"
	if a.Median != 0 {
		delta = fmt.Sprintf("%+.1f%%", (b.Median-a.Median)/a.Median*100)
	}
	iqr := func(d Dist) string {
		if d.N <= 1 {
			return ""
		}
		return fmt.Sprintf("%.4g-%.4g", d.P25, d.P75)
	}
	fmt.Fprintf(w, "%-14s %-26s %-5s %12.6g %12s %12.6g %12s %8s %6s  %s\n",
		workload, spec.Name, spec.Unit, a.Median, iqr(a), b.Median, iqr(b), delta, bound, verdict)
}
