package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/client"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The golden tests pin the topology presets to the seed's hand-wired
// constructors byte-for-byte: the files under testdata/ were generated
// from the pre-Builder code, and any refactor of the topology, link,
// or queue layers must keep reproducing them exactly. Regenerate
// (deliberately!) with:
//
//	go test ./internal/experiment -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current code")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from the seed topology output\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// goldenQBoneSpec is a reduced Figure-7-style grid: small enough to run
// in every test pass, large enough to exercise policing both above and
// below the encoding rate.
func goldenQBoneSpec() QBoneSpec {
	return QBoneSpec{
		Key: "golden-qbone", ID: "Golden QBone",
		Title:   "QBone, Lost @ 1.0 Mbps (reduced golden grid)",
		Clip:    video.Lost(),
		EncRate: 1.0e6,
		Tokens:  []units.BitRate{900 * units.Kbps, 1100 * units.Kbps},
		Depths:  []units.ByteSize{3000},
		Seed:    DefaultSeed, Runs: 1,
	}
}

func TestGoldenQBonePreset(t *testing.T) {
	checkGolden(t, "golden_qbone.txt", RunScenarioOpts(goldenQBoneSpec(), RunOptions{}).Format())
}

func TestGoldenQBoneShapedPreset(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	q := topology.BuildQBone(topology.QBoneConfig{
		Seed: DefaultSeed, Enc: enc, TokenRate: 1.05e6, Depth: 3000, Shape: true,
	})
	q.Client.Tolerance = client.SliceTolerance
	q.Run()
	ev := Evaluate(q.Client.Trace(), enc, enc)
	got := fmt.Sprintf(
		"Golden QBone shaped — Lost @ 1.0M, token 1.05M, B=3000\n"+
			"frameloss=%.6f quality=%.6f\n"+
			"shaper passed=%d delayed=%d dropped=%d\n"+
			"client packets=%d\n"+
			"delay mean=%.6f p99=%.6f jitter=%.6f\n",
		ev.FrameLoss, ev.Quality,
		q.Shaper.Passed, q.Shaper.Delayed, q.Shaper.Dropped,
		q.Client.Packets,
		q.Delay.Delay.Mean(), q.Delay.Delay.Percentile(99), q.Delay.Jitter.Mean())
	checkGolden(t, "golden_qbone_shaped.txt", got)
}

// goldenLocalSpec is a reduced Figure-15-style grid (UDP, drop
// policing).
func goldenLocalSpec() LocalSpec {
	return LocalSpec{
		Key: "golden-local", ID: "Golden Local",
		Title: "Local testbed, WMV Lost, drop policing (reduced golden grid)",
		Clip:  video.Lost(), CapKbps: video.WMVCapKbps,
		Tokens:    []units.BitRate{900 * units.Kbps, 1900 * units.Kbps},
		Depths:    []units.ByteSize{3000},
		UseShaper: false, UseTCP: false, Seed: DefaultSeed,
	}
}

func TestGoldenLocalPreset(t *testing.T) {
	checkGolden(t, "golden_local.txt", RunScenarioOpts(goldenLocalSpec(), RunOptions{}).Format())
}

func TestGoldenLocalTCPShapedPreset(t *testing.T) {
	enc := video.CachedVBR(video.Lost(), units.BitRate(video.WMVCapKbps)*units.Kbps)
	p := localPoint(enc, topology.LocalConfig{TokenRate: 1.5e6, Depth: 4500, UseShaper: true, UseTCP: true})
	got := fmt.Sprintf(
		"Golden Local TCP shaped — WMV Lost, token 1.5M, B=4500\n"+
			"frameloss=%.6f quality=%.6f pktloss=%.6f calib=%d\n",
		p.FrameLoss, p.Quality, p.PacketLoss, p.Calibration)
	checkGolden(t, "golden_local_tcp.txt", got)
}

func TestGoldenAFPreset(t *testing.T) {
	af := afAblation([]float64{0.45}, []units.BitRate{1.0e6})
	checkGolden(t, "golden_af.txt", RunScenarioOpts(af, RunOptions{}).Format())
}

// TestGoldenAblations pins each remaining ablation on a reduced grid.
// The files were written by the serial ablation functions the
// scenarios replaced, with only their grids cut down, so they prove
// the scenarios print what those functions printed.
func TestGoldenAblations(t *testing.T) {
	for _, c := range []struct {
		file string
		s    Scenario
	}{
		{"golden_abl_shape.txt", shapeAblation(TokenSweep(1500, 1900, 400))},
		{"golden_abl_hops.txt", hopsAblation([]int{1, 2})},
		{"golden_abl_jitter.txt", jitterAblation([]int{1, 8})},
		{"golden_abl_tcp.txt", tcpAblation(TokenSweep(1300, 2100, 800))},
		{"golden_ef_service.txt", efServiceAblation([]float64{0.02, 0.8})},
	} {
		c := c
		t.Run(c.s.Name(), func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.file, RunScenarioOpts(c.s, RunOptions{Parallel: 1}).Format())
		})
	}
}
