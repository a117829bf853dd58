package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Simulator).Run":               "prof.sim_share",
		"repro/internal/flowbatch.(*BatchedMixture).emit":   "prof.flowbatch_share",
		"repro/internal/link.(*Link).Handle":                "prof.datapath_share",
		"repro/internal/tokenbucket.(*Bucket).Conform":      "prof.datapath_share",
		"repro/internal/stats.(*P2Quantile).Add":            "prof.sinks_share",
		"repro/internal/tcpsim.(*Sender).onAck":             "prof.sources_share",
		"repro/internal/vqm.Score":                          "prof.eval_share",
		"repro/internal/ptrace.(*Recorder).Emit":            "prof.ptrace_share",
		"repro/internal/topology.(*classDemux).Handle":      "prof.other_share",
		"repro/internal/runner.MapArena[...]":               "prof.other_share",
		"runtime.mallocgc":                                  "prof.runtime_share",
		"runtime/internal/atomic.(*Uint64).Add":             "prof.runtime_share",
		"internal/runtime/atomic.(*Uint32).Load":            "prof.runtime_share",
		"main.runKernels":                                   "prof.other_share",
		"encoding/json.(*decodeState).object":               "prof.other_share",
		"repro/internal/simulated.notTheSimPackage.AtAll()": "prof.other_share",
	}
	for fn, want := range cases {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var profileSink uint64

func TestProfileSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 120*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			profileSink = profileSink*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()

	samples, shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(profShareNames) {
		t.Fatalf("%d shares, want one per bucket (%d)", len(shares), len(profShareNames))
	}
	if samples == 0 {
		t.Skip("the profiler delivered no samples in 120 ms on this host")
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	// The busy loop is this test function: its samples are the harness's own.
	if shares["prof.other_share"] < 0.5 {
		t.Errorf("other share %v: the busy loop in package main should dominate; shares %v", shares["prof.other_share"], shares)
	}
	if _, _, err := profileShares([]byte("not a profile")); err == nil {
		t.Error("garbage input must be an error")
	}
}
