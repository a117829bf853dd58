// Command vqmtool scores a stored frame timing trace against a
// reference encoding — the offline half of the paper's measurement
// pipeline (§3.1): dsstream plays the role of the instrumented client
// writing the trace; vqmtool plays the role of the ITS VQM tool run
// afterwards over the stored frames.
//
// Example:
//
//	dsstream -testbed qbone -token 1.8M -trace run.trace
//	vqmtool -clip Lost -rate 1.7M -in run.trace
//	vqmtool -clip Lost -rate 1.0M -ref 1.7M -in run.trace   # Figs. 13-14 mode
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/client"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the command logic
// is testable in-process (the same pattern dsbench and dsstream use).
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vqmtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "trace file produced by dsstream -trace (required)")
	clipName := fs.String("clip", "Lost", "Lost or Dark")
	rateStr := fs.String("rate", "1.7M", "encoding rate of the received stream (CBR) or 'wmv'")
	refStr := fs.String("ref", "", "reference encoding rate (default: same as -rate)")
	perSegment := fs.Bool("segments", false, "print per-segment scores")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: vqmtool takes flags only\n", fs.Arg(0))
		return 2
	}

	if *in == "" {
		fmt.Fprintln(stderr, "vqmtool: -in is required")
		return 2
	}
	clip := video.ByName(*clipName)
	if clip == nil {
		fmt.Fprintf(stderr, "unknown clip %q\n", *clipName)
		return 2
	}
	// encode builds the encoding flag -name asks for; a non-positive
	// rate would score against an empty stream.
	encode := func(name, s string) (*video.Encoding, error) {
		if s == "wmv" {
			return video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps), nil
		}
		r, err := units.ParseBitRate(s)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		if r <= 0 {
			return nil, fmt.Errorf("-%s must be > 0, got %s", name, s)
		}
		return video.EncodeCBR(clip, r), nil
	}
	enc, err := encode("rate", *rateStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ref := enc
	if *refStr != "" {
		if ref, err = encode("ref", *refStr); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A trace scored against another clip's encoding would print a
	// plausible, meaningless figure.
	if n := clip.FrameCount(); tr.ClipFrames != n {
		fmt.Fprintf(stderr, "vqmtool: -clip %s has %d frames, but %s traces a %d-frame clip\n",
			*clipName, n, *in, tr.ClipFrames)
		return 2
	}

	decoded := tr
	if enc.CBR {
		decoded = client.DecodeMPEG(tr, enc)
	}
	d := render.Conceal(decoded)
	res := vqm.Score(d, enc, ref)

	fmt.Fprintf(stdout, "trace:          %s (%d/%d frames received)\n", *in, len(tr.Records), tr.ClipFrames)
	fmt.Fprintf(stdout, "decodable:      %d (frame loss %.4f)\n",
		len(decoded.Records), decoded.FrameLossFraction())
	fmt.Fprintf(stdout, "display slots:  %d (%d repeats, longest freeze %d)\n",
		len(d.Frames), d.Repeats, d.LongestFreeze())
	fmt.Fprintf(stdout, "VQM index:      %.3f\n", res.Index)
	fmt.Fprintf(stdout, "calib failures: %d of %d segments\n", res.CalibrationFailures, len(res.Segments))
	if *perSegment {
		for i, s := range res.Segments {
			status := "ok"
			if !s.Aligned {
				status = "CALIBRATION FAILED"
			}
			fmt.Fprintf(stdout, "  seg %2d @%5d shift=%4d idx=%.3f %s\n",
				i, s.StartSlot, s.Shift, s.Index, status)
		}
	}
	return 0
}
