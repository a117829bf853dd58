// Command dsstream runs a single streaming experiment and prints the
// network- and application-level outcome, optionally saving the raw
// frame timing trace for offline scoring with vqmtool — the same
// two-step workflow the paper's instrumented clients used.
//
// Examples:
//
//	dsstream -testbed qbone -clip Lost -rate 1.7M -token 1.9M -depth 3000
//	dsstream -testbed local -clip Lost -token 1.3M -depth 4500 -shape
//	dsstream -testbed local -tcp -token 1.5M -trace out.trace
//
// -rate applies to the qbone testbed only and -tcp to the local one;
// setting either on the other testbed exits 2, as does a -token, -depth
// or -rate that is not positive. A whole registered figure is
// regenerated by dsbench -scenario, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/render"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
	"repro/internal/vqm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the command logic
// is testable in-process. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	testbed := fs.String("testbed", "qbone", "qbone or local")
	clipName := fs.String("clip", "Lost", "Lost or Dark")
	rateStr := fs.String("rate", "1.7M", "qbone testbed: CBR encoding rate (local streams the WMV-capped VBR encoding)")
	tokenStr := fs.String("token", "1.9M", "policer token rate")
	depth := fs.Int64("depth", 3000, "token bucket depth in bytes")
	shape := fs.Bool("shape", false, "shape instead of (qbone) / ahead of (local) the dropping policer")
	tcp := fs.Bool("tcp", false, "local testbed: stream over TCP")
	seed := fs.Uint64("seed", experiment.DefaultSeed, "simulation seed")
	traceOut := fs.String("trace", "", "write the frame timing trace to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q: dsstream takes flags only\n", fs.Arg(0))
		return 2
	}
	// A flag the chosen testbed has no use for is an error, not a no-op.
	misplaced := ""
	fs.Visit(func(f *flag.Flag) {
		if (*testbed == "qbone" && f.Name == "tcp") || (*testbed == "local" && f.Name == "rate") {
			misplaced = f.Name
		}
	})
	if misplaced != "" {
		fmt.Fprintf(stderr, "-%s does not apply to -testbed %s\n", misplaced, *testbed)
		return 2
	}

	clip := video.ByName(*clipName)
	if clip == nil {
		fmt.Fprintf(stderr, "unknown clip %q\n", *clipName)
		return 2
	}
	// The token bucket cannot take a non-positive rate or depth.
	token, err := bitRate("token", *tokenStr)
	if err == nil {
		err = positive("depth", fmt.Sprint(*depth), float64(*depth))
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var tr *trace.Trace
	var enc *video.Encoding
	var pktLoss float64

	switch *testbed {
	case "qbone":
		rate, err := bitRate("rate", *rateStr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		enc = video.EncodeCBR(clip, rate)
		q := topology.BuildQBone(topology.QBoneConfig{
			Seed: *seed, Enc: enc, TokenRate: token,
			Depth: units.ByteSize(*depth), Shape: *shape,
		})
		q.RunVideo()
		tr = q.Client.Trace()
		if q.Policer != nil {
			pktLoss = q.Policer.LossFraction()
		}
	case "local":
		enc = video.EncodeVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps)
		l := topology.BuildLocal(topology.LocalConfig{
			Seed: *seed, Enc: enc, TokenRate: token,
			Depth: units.ByteSize(*depth), UseShaper: *shape, UseTCP: *tcp,
		})
		l.Run()
		tr = l.Trace()
		pktLoss = l.Policer.LossFraction()
	default:
		fmt.Fprintf(stderr, "unknown testbed %q\n", *testbed)
		return 2
	}

	decoded := tr
	if enc.CBR {
		decoded = client.DecodeMPEG(tr, enc)
	}
	d := render.Conceal(decoded)
	res := vqm.Score(d, enc, enc)

	fmt.Fprintf(stdout, "testbed:        %s\n", *testbed)
	fmt.Fprintf(stdout, "encoding:       %s\n", enc.Name)
	fmt.Fprintf(stdout, "token rate:     %v, depth %d B, shape=%v\n", token, *depth, *shape)
	fmt.Fprintf(stdout, "packet loss:    %.4f\n", pktLoss)
	fmt.Fprintf(stdout, "frame loss:     %.4f (%d of %d frames)\n",
		decoded.FrameLossFraction(), decoded.LostFrames(), decoded.ClipFrames)
	fmt.Fprintf(stdout, "freeze slots:   %d (longest %d)\n", d.Repeats, d.LongestFreeze())
	fmt.Fprintf(stdout, "VQM index:      %.3f  (0 = perfect, 1 = worst)\n", res.Index)
	fmt.Fprintf(stdout, "calib failures: %d of %d segments\n", res.CalibrationFailures, len(res.Segments))

	if *traceOut != "" {
		err := atomicfile.WriteTo(*traceOut, func(w io.Writer) error {
			_, err := tr.WriteTo(w)
			return err
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written:  %s\n", *traceOut)
	}
	return 0
}

// bitRate parses the rate flag -name, which must be positive.
func bitRate(name, text string) (units.BitRate, error) {
	r, err := units.ParseBitRate(text)
	if err != nil {
		return 0, fmt.Errorf("-%s: %w", name, err)
	}
	return r, positive(name, text, float64(r))
}

// positive rejects a non-positive value of flag -name, given as text,
// with an error that names the flag and the value.
func positive(name, text string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be > 0, got %s", name, text)
	}
	return nil
}
