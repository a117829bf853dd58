// Command dstrace summarizes a binary v2 packet trace produced by
// `dsbench -trace`: per-hop forwarding and drop breakdown,
// residence-delay percentiles, conditioner verdict counts and
// timeline, and per-flow one-way latency. Every mode streams the file
// through bounded-memory state and never holds the capture, so
// fleet-scale spilled traces summarize in constant space. With -frames
// it makes a second streaming pass that joins the packet trace against
// the client's frame trace and attributes each lost video frame to the
// hop that dropped its fragments — the "why did this point score what
// it did" question the figure tables cannot answer. With -compare it
// diffs two traces' digests per hop and per flow and exits non-zero
// on a threshold breach: a behavioral regression gate for CI. With
// -compare-golden it diffs one trace against a stored .digest file
// (written by `dsbench -trace-digest`), so the baseline side of the
// gate is a small checked-in artifact instead of a full trace.
//
// Examples:
//
//	dsbench -scenario tandem -trace traces/ -trace-verdicts
//	dstrace -in traces/tandem-2border-tok1100000-B3000-s42.ptrace
//	dstrace -in run.ptrace -bucket 500ms
//	dstrace -in run.ptrace -frames run.trace -top 20
//	dstrace -compare base.ptrace candidate.ptrace -rel 0.02 -abs-ms 0.1
//	dstrace -compare-golden golden.digest run.ptrace
//
// Exit codes: 0 success, 1 unopenable input or a -compare /
// -compare-golden breach, 2 usage error (a flag the chosen mode does
// not read included) or unreadable/truncated/garbage/stale trace,
// frame-trace or digest file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/ptrace"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the command logic
// is testable in-process (the same pattern dsbench, dsstream and
// vqmtool use). It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "packet trace file produced by dsbench -trace")
	frames := fs.String("frames", "", "frame trace (dsstream -trace format) to attribute losses against")
	bucket := fs.Duration("bucket", time.Second, "verdict-timeline bucket width")
	top := fs.Int("top", 10, "max lost frames listed individually (0 = all)")
	compare := fs.Bool("compare", false, "diff two traces: dstrace -compare a.ptrace b.ptrace")
	compareGolden := fs.String("compare-golden", "",
		"diff one trace against a stored digest: dstrace -compare-golden golden.digest run.ptrace")
	rel := fs.Float64("rel", 0, "-compare relative tolerance per field (0 = exact)")
	absMS := fs.Float64("abs-ms", 0, "-compare absolute noise floor for delay fields, in ms")
	rows := fs.Int("rows", 20, "-compare max entities listed per delta table (0 = all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *bucket <= 0 {
		fmt.Fprintln(stderr, "dstrace: -bucket must be positive")
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"top", *top}, {"rows", *rows}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "dstrace: -%s must be >= 0 (0 = all), got %d\n", f.name, f.v)
			return 2
		}
	}
	if *compare && *compareGolden != "" {
		fmt.Fprintln(stderr, "dstrace: -compare and -compare-golden are mutually exclusive")
		return 2
	}
	// A flag the chosen mode does not read is an error, not a no-op.
	mode, reads := "-in", []string{"in", "frames", "bucket", "top"}
	switch {
	case *compare:
		mode, reads = "-compare", []string{"compare", "bucket", "rel", "abs-ms", "rows"}
	case *compareGolden != "":
		mode, reads = "-compare-golden", []string{"compare-golden", "rel", "abs-ms", "rows"}
	case *frames == "":
		mode, reads = "-in without -frames", reads[:3]
	}
	misplaced := ""
	fs.Visit(func(f *flag.Flag) {
		if misplaced == "" && !slices.Contains(reads, f.Name) {
			misplaced = f.Name
		}
	})
	if misplaced != "" {
		fmt.Fprintf(stderr, "dstrace: -%s does not apply to %s\n", misplaced, mode)
		return 2
	}
	if *compare || *compareGolden != "" {
		th, err := thresholds(*rel, *absMS)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *compareGolden != "" {
			if fs.NArg() != 1 {
				fmt.Fprintln(stderr, "dstrace: -compare-golden needs exactly one trace file")
				return 2
			}
			return runCompareGolden(*compareGolden, fs.Arg(0), th, *rows, stdout, stderr)
		}
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dstrace: -compare needs exactly two trace files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), th, units.FromDuration(*bucket), *rows, stdout, stderr)
	}
	if *in == "" {
		fmt.Fprintln(stderr, "dstrace: -in is required")
		return 2
	}

	// The frame trace is read before any output, under the file-kind
	// convention of streamFile.
	var ft *trace.Trace
	if *frames != "" {
		ff, err := os.Open(*frames)
		if err != nil {
			fmt.Fprintf(stderr, "dstrace: -frames: %v\n", err)
			return 1
		}
		ft, err = trace.Read(ff)
		ff.Close()
		if err != nil {
			fmt.Fprintf(stderr, "dstrace: -frames %s: unreadable frame trace: %v\n", *frames, err)
			return 2
		}
	}
	s, info, code := analyzeFile(*in, units.FromDuration(*bucket), stderr)
	if code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "trace: %s (%d events, %d hops)\n", *in, info.Events, info.Hops)
	fmt.Fprint(stdout, s.Format())
	if ft == nil {
		return 0
	}
	var a *ptrace.Attribution
	if code := streamFile(*in, stderr, func(r io.Reader) (err error) {
		a, err = ptrace.AttributeFrameLoss(r, ft)
		return err
	}); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "\nframe-loss attribution against %s:\n", *frames)
	fmt.Fprint(stdout, a.Format(*top))
	return 0
}

// streamFile opens a trace and makes one streaming pass over it. The
// non-zero return is the process exit code: 1 when the file cannot be
// opened, 2 when it opens but is not a readable trace (garbage,
// truncated, or recorded in a retired encoding).
func streamFile(path string, stderr io.Writer, pass func(io.Reader) error) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	if err := pass(f); err != nil {
		fmt.Fprintf(stderr, "dstrace: %s: unreadable or truncated trace: %v\n", path, err)
		return 2
	}
	return 0
}

// analyzeFile streams a trace file through the bounded-memory digest.
func analyzeFile(path string, bucket units.Time, stderr io.Writer) (s *ptrace.Summary, info ptrace.StreamInfo, code int) {
	code = streamFile(path, stderr, func(r io.Reader) (err error) {
		s, info, err = ptrace.AnalyzeStream(r, bucket)
		return err
	})
	return s, info, code
}

// thresholds checks the -compare and -compare-golden tolerances. Each
// must be a finite number >= 0: every comparison against NaN or +Inf
// passes, so either would open the gate, and -abs-ms must also fit the
// simulator clock once converted.
func thresholds(rel, absMS float64) (ptrace.Thresholds, error) {
	maxMS := float64(math.MaxInt64) / float64(units.Millisecond)
	switch {
	case !(rel >= 0 && rel <= math.MaxFloat64):
		return ptrace.Thresholds{}, fmt.Errorf("dstrace: -rel must be a finite number >= 0, got %v", rel)
	case !(absMS >= 0 && absMS < maxMS):
		return ptrace.Thresholds{}, fmt.Errorf("dstrace: -abs-ms must be a finite number in [0, %.3g), got %v", maxMS, absMS)
	}
	return ptrace.Thresholds{Rel: rel, AbsTime: units.Time(absMS * float64(units.Millisecond))}, nil
}

// runCompareGolden diffs one trace against a stored digest file: the
// golden side is the small .digest artifact `dsbench -trace-digest`
// wrote, not a full trace. The candidate is analyzed at bucket 0,
// matching how digests are produced; -bucket does not apply here
// (CompareSummaries joins hops and flows, never the timeline). Exit
// codes follow the file-kind convention: an unopenable golden is 1,
// an unreadable (garbage/foreign/stale-version) golden is 2, and any
// threshold breach is 1.
func runCompareGolden(goldenPath, tracePath string, th ptrace.Thresholds, rows int, stdout, stderr io.Writer) int {
	gf, err := os.Open(goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	golden, err := ptrace.ReadSummary(gf)
	gf.Close()
	if err != nil {
		fmt.Fprintf(stderr, "dstrace: %s: %v\n", goldenPath, err)
		return 2
	}
	s, info, code := analyzeFile(tracePath, 0, stderr)
	if code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "golden: %s\nrun:    %s (%d events)\n", goldenPath, tracePath, info.Events)
	diff := ptrace.CompareSummaries(golden, s, th)
	fmt.Fprint(stdout, diff.Format(rows))
	if diff.Breaches > 0 {
		fmt.Fprintf(stderr, "dstrace: %d behavioral threshold breach(es) against golden\n", diff.Breaches)
		return 1
	}
	return 0
}

// runCompare digests two traces and renders their per-hop/per-flow
// delta table. Exit 1 on any threshold breach.
func runCompare(pathA, pathB string, th ptrace.Thresholds, bucket units.Time, rows int, stdout, stderr io.Writer) int {
	sa, ia, code := analyzeFile(pathA, bucket, stderr)
	if code != 0 {
		return code
	}
	sb, ib, code := analyzeFile(pathB, bucket, stderr)
	if code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "a: %s (%d events)\nb: %s (%d events)\n", pathA, ia.Events, pathB, ib.Events)
	diff := ptrace.CompareSummaries(sa, sb, th)
	fmt.Fprint(stdout, diff.Format(rows))
	if diff.Breaches > 0 {
		fmt.Fprintf(stderr, "dstrace: %d behavioral threshold breach(es)\n", diff.Breaches)
		return 1
	}
	return 0
}
