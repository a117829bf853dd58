package experiment

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestFormatEmptyFigure(t *testing.T) {
	fig := &Figure{ID: "X", Title: "empty"}
	out := fig.Format()
	if !strings.Contains(out, "X — empty") {
		t.Errorf("header missing: %q", out)
	}
}

func TestFormatRaggedSeries(t *testing.T) {
	fig := &Figure{
		ID: "Y", Title: "ragged",
		Series: []Series{
			{Label: "a", Points: []Point{
				{TokenRate: 1e6, Evaluation: Evaluation{FrameLoss: 0.1, Quality: 0.2}},
				{TokenRate: 2e6, Evaluation: Evaluation{FrameLoss: 0, Quality: 0}},
			}},
			{Label: "b", Points: []Point{
				{TokenRate: 1e6, Evaluation: Evaluation{FrameLoss: 0.3, Quality: 0.4}},
			}},
		},
	}
	out := fig.Format()
	if !strings.Contains(out, "0.100") || !strings.Contains(out, "0.400") {
		t.Errorf("values missing:\n%s", out)
	}
	if strings.Count(out, "\n") < 4 {
		t.Errorf("too few rows:\n%s", out)
	}
}

func TestEvaluationFieldsPropagate(t *testing.T) {
	p := Point{TokenRate: 1.5e6, Depth: 3000,
		Evaluation: Evaluation{FrameLoss: 0.25, Quality: 0.5, PacketLoss: 0.1, Calibration: 2}}
	if p.FrameLoss != 0.25 || p.Quality != 0.5 || p.Calibration != 2 {
		t.Error("embedding broken")
	}
	if p.TokenRate != units.BitRate(1.5e6) {
		t.Error("token rate lost")
	}
}

func TestStandardDepths(t *testing.T) {
	d := standardDepths()
	if len(d) != 2 || d[0] != 3000 || d[1] != 4500 {
		t.Errorf("standardDepths = %v", d)
	}
}
