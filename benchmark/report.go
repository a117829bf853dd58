package main

import (
	"fmt"
	"io"
)

// printWorkload prints every metric by name with its unit: the
// end-to-end table (median, quartiles, min, n), then — when the run was
// traced — the layer table.
func printWorkload(w io.Writer, r *WorkloadResult, p Protocol) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d timed repetitions  (%s, %d cpus, GOMAXPROCS %d, rev %s)\n",
		r.Name, p.Seed, r.Reps, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.GitRevision)
	fmt.Fprintf(w, "%-28s %-6s %14s %14s %14s %14s %4s\n", "end-to-end", "unit", "median", "p25", "p75", "min", "n")
	for _, s := range endToEnd {
		m := r.EndToEnd[s.Name]
		fmt.Fprintf(w, "%-28s %-6s %14.6g %14.6g %14.6g %14.6g %4d\n", s.Name, m.Unit, m.Median, m.P25, m.P75, m.Min, m.N)
	}
	fmt.Fprintf(w, "%-28s %-6s %14.6g   (%d failed of %d operations; digest %.16s)\n",
		"fail_share", "ratio", r.FailShare, r.Failed, r.Attempted, r.Digest)
	if r.PerLayer != nil {
		fmt.Fprintf(w, "%-28s %-6s %14s   %s\n", "per-layer", "unit", "value", "expected to move")
		for _, s := range perLayer {
			fmt.Fprintf(w, "%-28s %-6s %14.6g   %s\n", s.Name, s.Unit, r.PerLayer[s.Name].Median, s.Moves)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
