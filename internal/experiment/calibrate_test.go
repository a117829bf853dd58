package experiment

import (
	"testing"

	"repro/internal/units"
	"repro/internal/video"
)

// TestCalibrationQBoneLost17 prints the Figure-7 style curve at a few
// rates; run with -v to inspect during model calibration.
func TestCalibrationQBoneLost17(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	clip := video.Lost()
	enc := video.EncodeCBR(clip, 1.7e6)
	max, avg, min := enc.RateStats()
	t.Logf("enc stats: max=%.0f avg=%.0f min=%.0f", max, avg, min)
	for _, depth := range []units.ByteSize{3000, 4500} {
		for _, tok := range []units.BitRate{1.2e6, 1.5e6, 1.7e6, 1.9e6, 2.1e6, 2.2e6} {
			p := qbonePoint(enc, enc, tok, depth, DefaultSeed, 0, 1)
			t.Logf("B=%d tok=%v: pktloss=%.4f frameloss=%.4f quality=%.3f calfail=%d",
				int64(depth), tok, p.PacketLoss, p.FrameLoss, p.Quality, p.Calibration)
		}
	}
}
