package ptrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/units"
)

// Quantiles summarizes a delay sample stream. Max and N are exact;
// the percentiles are P² sketch estimates (see digest.go), which
// converge on the exact order statistics as the stream grows.
type Quantiles struct {
	N                  int
	P50, P90, P99, Max units.Time
}

func ms(t units.Time) float64 { return float64(t) / float64(units.Millisecond) }

// HopStats aggregates one hop's events.
type HopStats struct {
	Name   string
	Counts [numKinds]int
	// Drops is the terminal drops at this hop (Kind.IsDrop kinds).
	Drops int
	// MaxQLen is the deepest queue observed at enqueue.
	MaxQLen int32
	// Residence summarizes LinkTx delays: queueing + serialization at
	// this hop.
	Residence Quantiles
}

// FlowStats aggregates client deliveries of one flow.
type FlowStats struct {
	Flow      packet.FlowID
	Delivered int
	Drops     int // drops of this flow anywhere on the path
	// OneWay summarizes the end-to-end delay of Deliver events.
	OneWay Quantiles
}

// VerdictBucket is one time bucket of a hop's policer/marker verdicts.
type VerdictBucket struct {
	Hop                 string
	Start               units.Time
	Pass, Demote, Drops int
}

// Summary is the offline digest dstrace prints.
type Summary struct {
	Seen     uint64
	Retained int
	Span     units.Time // time covered by the retained window
	Hops     []HopStats
	Flows    []FlowStats
	// Timeline buckets policer/marker verdicts per hop over time.
	Timeline []VerdictBucket
}

// Format renders the summary as aligned text tables.
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d emitted, %d retained", s.Seen, s.Retained)
	if s.Seen > 0 && s.Retained > 0 {
		fmt.Fprintf(&b, " (%.1f%%), window %.1f ms",
			100*float64(s.Retained)/float64(s.Seen), ms(s.Span))
	}
	b.WriteString("\n\nper-hop:\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %7s %6s %6s %6s %6s %5s %9s %9s\n",
		"hop", "enq", "tx", "deliver", "drops", "qdrop", "pol-", "shp-", "loss", "maxQ", "p50ms", "p99ms")
	for _, h := range s.Hops {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %7d %6d %6d %6d %6d %5d %9.3f %9.3f\n",
			h.Name, h.Counts[LinkEnqueue], h.Counts[LinkTx],
			h.Counts[LinkDeliver]+h.Counts[Deliver], h.Drops,
			h.Counts[QueueDrop], h.Counts[PolicerDrop], h.Counts[ShaperDrop],
			h.Counts[Loss], h.MaxQLen,
			ms(h.Residence.P50), ms(h.Residence.P99))
	}
	if conditioned(s.Hops) {
		b.WriteString("\nconditioner verdicts:\n")
		fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s\n",
			"hop", "pass", "demote", "drop", "release", "red")
		for _, h := range s.Hops {
			total := h.Counts[PolicerPass] + h.Counts[PolicerDemote] + h.Counts[PolicerDrop] +
				h.Counts[ShaperRelease] + h.Counts[ShaperDrop] + h.Counts[REDEarly]
			if total == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-12s %8d %8d %8d %8d %8d\n",
				h.Name, h.Counts[PolicerPass], h.Counts[PolicerDemote],
				h.Counts[PolicerDrop]+h.Counts[ShaperDrop],
				h.Counts[ShaperRelease], h.Counts[REDEarly])
		}
	}
	if len(s.Flows) > 0 {
		b.WriteString("\nper-flow one-way delay (client deliveries):\n")
		fmt.Fprintf(&b, "%-6s %8s %7s %9s %9s %9s %9s\n",
			"flow", "deliv", "drops", "p50ms", "p90ms", "p99ms", "maxms")
		for _, f := range s.Flows {
			fmt.Fprintf(&b, "%-6d %8d %7d %9.3f %9.3f %9.3f %9.3f\n",
				f.Flow, f.Delivered, f.Drops,
				ms(f.OneWay.P50), ms(f.OneWay.P90), ms(f.OneWay.P99), ms(f.OneWay.Max))
		}
	}
	if len(s.Timeline) > 0 {
		b.WriteString("\nverdict timeline:\n")
		fmt.Fprintf(&b, "%-12s %9s %8s %8s %8s\n", "hop", "t0(s)", "pass", "demote", "drop")
		for _, tb := range s.Timeline {
			fmt.Fprintf(&b, "%-12s %9.1f %8d %8d %8d\n",
				tb.Hop, float64(tb.Start)/float64(units.Second), tb.Pass, tb.Demote, tb.Drops)
		}
	}
	return b.String()
}

func conditioned(hops []HopStats) bool {
	for _, h := range hops {
		if h.Counts[PolicerPass]+h.Counts[PolicerDemote]+h.Counts[PolicerDrop]+
			h.Counts[ShaperRelease]+h.Counts[ShaperDrop]+h.Counts[REDEarly] > 0 {
			return true
		}
	}
	return false
}

// FrameLossCause attributes one lost clip frame to the hop that
// dropped its fragments.
type FrameLossCause struct {
	FrameSeq int
	Hop      string // hop with the most dropped fragments; "" if unknown
	Frags    int    // dropped fragments seen for this frame
}

// Attribution is the join of a packet trace against a frame trace.
type Attribution struct {
	LostFrames   int
	Attributed   []FrameLossCause
	Unattributed int // lost frames with no drop evidence in the window
	// ByHop counts frame kills per hop.
	ByHop map[string]int
}

// AttributeFrameLoss joins a packet trace against the client's frame
// trace in one streaming pass: for every clip frame the client never
// produced, find the hop whose drop events claimed that frame's
// fragments. It holds only the frame → hop → dropped-fragment counts of
// lost frames, never the events. Frames whose drops fell outside the
// capture come back unattributed.
func AttributeFrameLoss(r io.Reader, ft *trace.Trace) (*Attribution, error) {
	received := make(map[int]bool, len(ft.Records))
	for _, rec := range ft.Records {
		received[rec.Seq] = true
	}
	lost := func(seq int) bool { return seq >= 0 && seq < ft.ClipFrames && !received[seq] }
	drops := map[int]map[HopID]int{}
	hops, _, err := streamV2(r, func(e Event) {
		seq := int(e.FrameSeq)
		if !e.Kind.IsDrop() || !lost(seq) {
			return
		}
		m := drops[seq]
		if m == nil {
			m = map[HopID]int{}
			drops[seq] = m
		}
		m[e.Hop]++
	})
	if err != nil {
		return nil, err
	}
	a := &Attribution{ByHop: map[string]int{}}
	for seq := 0; seq < ft.ClipFrames; seq++ {
		if !lost(seq) {
			continue
		}
		a.LostFrames++
		m := drops[seq]
		if len(m) == 0 {
			a.Unattributed++
			continue
		}
		best, bestN, total := HopID(0), 0, 0
		for hop, n := range m {
			total += n
			if n > bestN || (n == bestN && hop < best) {
				best, bestN = hop, n
			}
		}
		name := hopName(hops, best)
		a.Attributed = append(a.Attributed, FrameLossCause{FrameSeq: seq, Hop: name, Frags: total})
		a.ByHop[name]++
	}
	return a, nil
}

// Format renders the attribution; top bounds the per-frame listing
// (<= 0 lists every lost frame).
func (a *Attribution) Format(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lost frames: %d (%d attributed, %d outside the capture window)\n",
		a.LostFrames, len(a.Attributed), a.Unattributed)
	if len(a.ByHop) > 0 {
		var hops []string
		for h := range a.ByHop {
			hops = append(hops, h)
		}
		sort.Slice(hops, func(i, j int) bool {
			if a.ByHop[hops[i]] != a.ByHop[hops[j]] {
				return a.ByHop[hops[i]] > a.ByHop[hops[j]]
			}
			return hops[i] < hops[j]
		})
		b.WriteString("frame kills by hop:\n")
		for _, h := range hops {
			fmt.Fprintf(&b, "  %-12s %d\n", h, a.ByHop[h])
		}
	}
	n := len(a.Attributed)
	if top > 0 && n > top {
		n = top
	}
	if n > 0 {
		b.WriteString("lost frames (frame -> killing hop, dropped frags):\n")
		for _, c := range a.Attributed[:n] {
			fmt.Fprintf(&b, "  frame %5d  %-12s %d\n", c.FrameSeq, c.Hop, c.Frags)
		}
		if n < len(a.Attributed) {
			fmt.Fprintf(&b, "  ... %d more\n", len(a.Attributed)-n)
		}
	}
	return b.String()
}
