package video

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// MPEGRow is one row of the paper's Table 2.
type MPEGRow struct {
	EncodingRate units.BitRate
	BytesRead    int64
	Frames       int
	LengthSec    float64
	AvgFrameSize float64
	MaxRate      float64
	AvgRate      float64
	MinRate      float64
}

// Table2 computes the MPEG encoding properties of a clip at the
// paper's three CBR rates — the reproduction of Table 2.
func Table2(c *Clip) []MPEGRow {
	rates := []units.BitRate{1.7e6, 1.5e6, 1.0e6}
	rows := make([]MPEGRow, 0, len(rates))
	for _, r := range rates {
		e := EncodeCBR(c, r)
		max, avg, min := e.RateStats()
		rows = append(rows, MPEGRow{
			EncodingRate: r,
			BytesRead:    e.totalBytes(),
			Frames:       c.FrameCount(),
			LengthSec:    c.DurationSeconds(),
			AvgFrameSize: e.avgFrameSize(),
			MaxRate:      max,
			AvgRate:      avg,
			MinRate:      min,
		})
	}
	return rows
}

// FormatTable2 renders Table 2 rows in the paper's layout.
func FormatTable2(name string, rows []MPEGRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Clip %s\n", name)
	fmt.Fprintf(&b, "%-9s %-11s %-7s %-9s %-14s %-10s %-12s %-8s\n",
		"Encoding", "Bytes read", "frames", "Length", "AvgFrameSize", "Max(bps)", "Avg(bps)", "Min(bps)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-11d %-7d %-9.2f %-14.0f %-10.0f %-12.2f %-8.0f\n",
			r.EncodingRate.String(), r.BytesRead, r.Frames, r.LengthSec,
			r.AvgFrameSize, r.MaxRate, r.AvgRate, r.MinRate)
	}
	return b.String()
}

// WMVRow is one clip's summary in the paper's Table 3.
type WMVRow struct {
	Clip         string
	BytesEncoded int64
	ExpectedKbps float64
	AverageKbps  float64
	FramesTotal  int
	FPSExpected  float64
	FPSAverage   float64
}

// WMVCapKbps is the encoder bandwidth setting used in §3.3.2.
const WMVCapKbps = 1015.5

// Table3 computes Windows-Media encoded clip properties — the
// reproduction of Table 3 (video session; audio was configured near
// zero and is ignored).
func Table3(c *Clip) WMVRow {
	e := EncodeVBR(c, units.BitRate(WMVCapKbps*1000))
	avgKbps := float64(e.totalBytes()) * 8 / c.DurationSeconds() / 1000
	return WMVRow{
		Clip:         c.Name,
		BytesEncoded: e.totalBytes(),
		ExpectedKbps: WMVCapKbps,
		AverageKbps:  avgKbps,
		FramesTotal:  c.FrameCount(),
		FPSExpected:  30.0,
		FPSAverage:   fps,
	}
}

// FormatTable3 renders Table 3 rows.
func FormatTable3(rows []WMVRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s Clip\n", r.Clip)
		fmt.Fprintf(&b, "  Bytes encoded (total): %d\n", r.BytesEncoded)
		fmt.Fprintf(&b, "  Bit rate (expected):   %.1f Kbps\n", r.ExpectedKbps)
		fmt.Fprintf(&b, "  Bit rate (average):    %.1f Kbps\n", r.AverageKbps)
		fmt.Fprintf(&b, "  Frames (total):        %d\n", r.FramesTotal)
		fmt.Fprintf(&b, "  FPS (expected/avg):    %.1f / %.1f\n", r.FPSExpected, r.FPSAverage)
	}
	return b.String()
}
