package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// resultSchema is bumped on any layout change of the result file.
const resultSchema = 1

// Protocol records how a set of runs was taken, so two result files can
// be checked for comparability before their numbers are.
type Protocol struct {
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GitRevision  string  `json:"git_revision"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	MinReps      int     `json:"min_reps"`
	SetupRepeats int     `json:"setup_repeats"`
	Parallel     int     `json:"parallel"`
	Trace        bool    `json:"trace"`
	Loop         string  `json:"loop"`
}

// Measurement is one metric of one workload.
type Measurement struct {
	Unit string `json:"unit"`
	Dist
}

// WorkloadResult is everything one workload's process measured.
type WorkloadResult struct {
	Name      string                 `json:"name"`
	Reps      int                    `json:"reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Correct   bool                   `json:"correct"`
	Digest    string                 `json:"digest"`
	Notes     []string               `json:"notes,omitempty"`
	EndToEnd  map[string]Measurement `json:"end_to_end"`
	PerLayer  map[string]Measurement `json:"per_layer,omitempty"`
}

// ResultFile is one complete set of runs.
type ResultFile struct {
	Schema    int              `json:"schema"`
	Protocol  Protocol         `json:"protocol"`
	Workloads []WorkloadResult `json:"workloads"`
}

func newProtocol(seed uint64, seconds float64, trace bool) Protocol {
	return Protocol{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GitRevision: gitRevision(),
		Seed: seed, Seconds: seconds, MinReps: minReps, SetupRepeats: setupRepeats,
		Parallel: 1, Trace: trace,
		Loop: "closed, one client: repetitions back to back in one process per workload",
	}
}

// gitRevision reads the revision the toolchain stamped into the binary;
// the driver's checkouts are not git repositories, hence "unknown".
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: result schema %d, this build reads %d", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverOutput selects the metrics the driver asked for: every
// end-to-end metric without tracing, every per-layer metric with it.
func driverOutput(r *WorkloadResult, trace bool) driverLine {
	src, specs := r.EndToEnd, endToEnd
	if trace {
		src, specs = r.PerLayer, perLayer
	}
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverMetric, len(specs))}
	for _, s := range specs {
		out.Metrics[s.Name] = driverMetric{Value: src[s.Name].Median, Unit: s.Unit}
	}
	return out
}
