package experiment

import (
	"fmt"
	"strings"
)

// Plot renders a figure as an ASCII chart: token rate on the x axis,
// quality index (or frame loss) on the y axis, one glyph per series —
// a terminal-friendly stand-in for the paper's figure plots. A figure
// with its own layout (an ablation's table) has no chart: Plot returns
// the empty string.
func (f *Figure) Plot(width, height int, lossInstead bool) string {
	if f.layout != nil {
		return ""
	}
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	if len(f.Series) == 0 || len(f.Series[0].Points) == 0 {
		return f.ID + " (no data)\n"
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}

	// X range from the first series' token sweep.
	lo := float64(f.Series[0].Points[0].TokenRate)
	hi := lo
	for _, s := range f.Series {
		for _, p := range s.Points {
			v := float64(p.TokenRate)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			y := p.Quality
			if lossInstead {
				y = p.FrameLoss
			}
			if y < 0 {
				y = 0
			}
			if y > 1 {
				y = 1
			}
			col := int((float64(p.TokenRate) - lo) / (hi - lo) * float64(width-1))
			row := int((1 - y) * float64(height-1))
			grid[row][col] = g
		}
	}

	metric := "quality index"
	if lossInstead {
		metric = "frame loss"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s; 1.0 top, 0.0 bottom)\n", f.ID, f.Title, metric)
	for r, row := range grid {
		label := "    "
		switch r {
		case 0:
			label = "1.0 "
		case height / 2:
			label = "0.5 "
		case height - 1:
			label = "0.0 "
		}
		fmt.Fprintf(&b, "%s|%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "    %s\n", strings.Repeat("-", width+2))
	fmt.Fprintf(&b, "    %-*s%s\n", width-8,
		fmt.Sprintf("%.0f kbps", lo/1000), fmt.Sprintf("%.0f kbps", hi/1000))
	var legend []string
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Label))
	}
	fmt.Fprintf(&b, "    legend: %s\n", strings.Join(legend, "  "))
	return b.String()
}
