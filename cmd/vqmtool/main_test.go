package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// runCmd invokes the command in-process, returning (exit, stdout,
// stderr).
func runCmd(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeTrace saves a synthetic near-perfect frame trace for the Lost
// clip (every 50th frame missing) and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	return writeClipTrace(t, video.Lost())
}

// writeClipTrace is writeTrace for any clip.
func writeClipTrace(t *testing.T, clip *video.Clip) string {
	t.Helper()
	tr := &trace.Trace{ClipFrames: clip.FrameCount()}
	iv := video.FrameInterval()
	for i := 0; i < clip.FrameCount(); i++ {
		if i%50 == 17 {
			continue
		}
		at := units.Time(int64(i)) * iv
		tr.Add(trace.FrameRecord{Seq: i, Arrival: at, Presentation: at, Frags: 1})
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlagValidation(t *testing.T) {
	tracePath := writeTrace(t)
	darkPath := writeClipTrace(t, video.Dark())
	lost, dark := video.Lost().FrameCount(), video.Dark().FrameCount()
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing -in", nil, "-in is required"},
		{"unknown clip", []string{"-in", tracePath, "-clip", "Nosuch"}, "unknown clip"},
		{"bad rate", []string{"-in", tracePath, "-rate", "fast"}, ""},
		{"bad ref rate", []string{"-in", tracePath, "-ref", "x"}, ""},
		{"undefined flag", []string{"-bogus"}, ""},
		{"zero rate", []string{"-in", tracePath, "-rate", "0"}, "-rate must be > 0, got 0"},
		{"zero ref rate", []string{"-in", tracePath, "-ref", "0"}, "-ref must be > 0, got 0"},
		{"NaN rate", []string{"-in", tracePath, "-rate", "NaN"}, `-rate: units: bit rate "NaN" is not finite`},
		{"infinite ref rate", []string{"-in", tracePath, "-ref", "Inf"}, `-ref: units: bit rate "Inf" is not finite`},
		{"negative rate", []string{"-in", tracePath, "-rate", "-1M"}, `-rate: units: negative bit rate "-1M"`},
		{"ref rate past float64", []string{"-in", tracePath, "-ref", "1e306G"}, `-ref: units: bit rate "1e306G" is not finite`},
		// Traces scored against the other clip once printed a figure and
		// exited 0.
		{"Lost trace as Dark", []string{"-in", tracePath, "-clip", "Dark", "-rate", "1.5M"},
			fmt.Sprintf("-clip Dark has %d frames, but %s traces a %d-frame clip", dark, tracePath, lost)},
		{"stray argument", []string{"-in", tracePath, "-rate", "1.0M", "stray"}, `unexpected argument "stray": vqmtool takes flags only`},
		{"Dark trace as Lost", []string{"-in", darkPath, "-clip", "Lost", "-rate", "1.5M"},
			fmt.Sprintf("-clip Lost has %d frames, but %s traces a %d-frame clip", lost, darkPath, dark)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("a usage error printed to stdout: %q", stdout)
			}
			if tc.wantErr != "" && !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
			// A panic exits 2 as well; a usage error must not be one.
			if strings.Contains(stderr, "goroutine") {
				t.Errorf("exit 2 came from a panic:\n%s", stderr)
			}
		})
	}
}

func TestMissingTraceFileExitsOne(t *testing.T) {
	code, _, stderr := runCmd("-in", filepath.Join(t.TempDir(), "nope.trace"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
}

func TestGarbageTraceExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.trace")
	if err := os.WriteFile(path, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCmd("-in", path); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// TestScoreSmoke scores a synthetic trace end to end, including the
// Figs. 13-14 cross-reference mode and per-segment output.
func TestScoreSmoke(t *testing.T) {
	tracePath := writeTrace(t)
	code, stdout, stderr := runCmd("-in", tracePath, "-clip", "Lost", "-rate", "1.7M")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"trace:", "decodable:", "display slots:", "VQM index:", "calib failures:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}

	code, ref, _ := runCmd("-in", tracePath, "-rate", "1.0M", "-ref", "1.7M", "-segments")
	if code != 0 {
		t.Fatalf("ref-mode exit = %d", code)
	}
	if !strings.Contains(ref, "seg ") {
		t.Errorf("-segments output lacks per-segment rows:\n%s", ref)
	}
}
