// Command benchmark is the repository's one performance instrument: six
// named workloads, each run in its own process under a fixed protocol,
// reporting the end-to-end metrics a user of the simulator pays (host
// time and memory to regenerate a figure or a fleet sweep) and, under
// -trace 1, a table of per-layer metrics measured from outside the
// layers. README.md in this directory is the manual.
//
//	go run ./benchmark                          # all six workloads, end-to-end metrics
//	go run ./benchmark -trace 1 -o NEW.json     # plus the layer table
//	go run ./benchmark -workload fleet-mix      # one workload, in this process
//	go run ./benchmark -compare OLD.json NEW.json
//	go run ./benchmark -update-golden           # re-pin the correctness digests
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload in this process (default: all six, one child process each)")
		seed         = fs.Uint64("seed", experiment.DefaultSeed, "seed substituted into the scenario files and specs")
		seconds      = fs.Float64("seconds", 10, "how long the timed repetitions of a workload run (at least 9 are taken)")
		trace        = fs.Int("trace", 0, "1 adds the traced repetition, the re-drive and the kernel suite (per-layer metrics)")
		outDir       = fs.String("out", filepath.Join("benchmark", "out"), "directory for generated inputs, traces and span files")
		srcDir       = fs.String("dir", "benchmark", "the benchmark's source directory (-update-golden writes golden/ here)")
		resultPath   = fs.String("o", "", "write the result file here (default: <out>/result.json; with -workload: none)")
		cpuProfile   = fs.String("cpuprofile", "", "keep the traced repetition's pprof CPU profile here (needs -trace 1 and -workload)")
		compare      = fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
		updateGolden = fs.Bool("update-golden", false, "rewrite golden/*.json from this run (default seed, implies -trace 1)")
		setups       = fs.Bool("setups-only", false, "internal: time the workload's cold set-ups and print them (the harness runs this as a child)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files: OLD.json NEW.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		srcDir: *srcDir, cpuProfile: *cpuProfile, updateGolden: *updateGolden}
	if o.updateGolden {
		if o.seed != experiment.DefaultSeed || !goldenDirOK(o.srcDir) {
			fmt.Fprintf(os.Stderr, "benchmark: -update-golden needs the default seed and -dir pointing at the benchmark's sources (%q has no golden/)\n", o.srcDir)
			return 2
		}
		o.trace = true
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		if *setups {
			return setupsOnly(w, o)
		}
		return runOne(w, o, *resultPath)
	}
	if o.cpuProfile != "" {
		fmt.Fprintln(os.Stderr, "benchmark: -cpuprofile names one file; pass -workload too")
		return 2
	}
	if *resultPath == "" {
		*resultPath = filepath.Join(o.outDir, "result.json")
	}
	return runAll(o, *resultPath)
}

// runOne runs a workload in this process, prints its tables, and ends
// standard output with the one-line JSON object the driver reads.
func runOne(w *workload, o options, resultPath string) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printWorkload(os.Stdout, res, newProtocol(o.seed, o.seconds, o.trace))
	if resultPath != "" {
		if err := writeJSONFile(resultPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(driverOutput(res, o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so peak_rss_mb is
// per workload and no workload runs on a heap another one grew, then
// gathers the children's results into one result file.
func runAll(o options, resultPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	rf := ResultFile{Schema: resultSchema, Protocol: newProtocol(o.seed, o.seconds, o.trace)}
	status := 0
	for _, w := range workloads {
		part := filepath.Join(o.outDir, "result-"+w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-out", o.outDir, "-dir", o.srcDir, "-o", part}
		if o.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // waits for the child to end
		data, err := os.ReadFile(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s left no result: %v (%v)\n", w.name, err, runErr)
			status = 1
			continue
		}
		var res WorkloadResult
		if err := json.Unmarshal(data, &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", part, err)
			status = 1
			continue
		}
		os.Remove(part)
		if runErr != nil || !res.Correct {
			status = 1
		}
		rf.Workloads = append(rf.Workloads, res)
	}
	if err := writeJSONFile(resultPath, rf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresult file: %s\n", resultPath)
	return status
}
