package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd invokes the command in-process, returning (exit, stdout,
// stderr).
func runCmd(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown testbed", []string{"-testbed", "mars"}, "unknown testbed"},
		{"unknown clip", []string{"-clip", "Nosuch"}, "unknown clip"},
		{"bad token rate", []string{"-token", "fast"}, ""},
		{"bad encoding rate", []string{"-testbed", "qbone", "-rate", "x"}, ""},
		{"tcp on qbone", []string{"-testbed", "qbone", "-tcp"}, "-tcp does not apply to -testbed qbone"},
		{"rate on local", []string{"-testbed", "local", "-rate", "0.5M"}, "-rate does not apply to -testbed local"},
		{"undefined flag", []string{"-bogus"}, ""},
		{"zero token rate", []string{"-token", "0"}, "-token must be > 0, got 0"},
		{"zero depth on qbone", []string{"-testbed", "qbone", "-depth", "0"}, "-depth must be > 0, got 0"},
		{"negative depth on qbone", []string{"-testbed", "qbone", "-depth", "-1"}, "-depth must be > 0, got -1"},
		{"zero depth on local", []string{"-testbed", "local", "-depth", "0"}, "-depth must be > 0, got 0"},
		{"negative depth on local", []string{"-testbed", "local", "-depth", "-1"}, "-depth must be > 0, got -1"},
		{"zero encoding rate", []string{"-testbed", "qbone", "-rate", "0"}, "-rate must be > 0, got 0"},
		{"NaN encoding rate", []string{"-testbed", "qbone", "-rate", "NaN"}, `-rate: units: bit rate "NaN" is not finite`},
		{"infinite token rate", []string{"-token", "Inf"}, `-token: units: bit rate "Inf" is not finite`},
		{"token rate past float64", []string{"-token", "1e306G"}, `-token: units: bit rate "1e306G" is not finite`},
		{"negative encoding rate", []string{"-testbed", "qbone", "-rate", "-1M"}, `-rate: units: negative bit rate "-1M"`},
		{"bad token rate named", []string{"-token", "fast"}, `-token: units: bad bit rate "fast"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
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

// TestSingleStreamSmoke runs one real (fast) local stream end to end,
// including the trace-file output — this stays enabled under -short.
func TestSingleStreamSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.trace")
	code, stdout, stderr := runCmd(
		"-testbed", "local", "-clip", "Lost",
		"-token", "2M", "-depth", "4500", "-tcp",
		"-trace", tracePath,
	)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"testbed:        local", "packet loss:", "frame loss:", "VQM index:", "trace written:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
}

// TestTraceWriteFailureLeavesNoFile: when the trace cannot be
// published — here its path names a directory — the command exits 1
// and leaves no partial or temporary file beside it.
func TestTraceWriteFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.trace")
	if err := os.Mkdir(tracePath, 0o755); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCmd("-testbed", "local", "-token", "2M", "-depth", "4500", "-trace", tracePath)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.trace" || !entries[0].IsDir() {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("failed trace write left %v behind", names)
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCmd("-h")
	if code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-testbed") {
		t.Errorf("-h printed no usage:\n%s", stderr)
	}
}
