package ptrace

// Streaming trace analysis. A spilled fleet-scale trace has an
// unbounded event count, so no analysis may keep delay samples in RAM
// and sort them for percentiles. The Digester keeps constant-size
// accumulators per hop and per flow instead: counts,
// Welford moments (stats.Moments, exact mean/min/max) and P² quantile
// sketches (stats.P2Quantile, estimated p50/p90/p99), so digesting a
// trace costs O(hops + flows + timeline buckets) memory no matter how
// many events stream through. TestDigestMemoryBoundedByState pins
// that: doubling a 100k-flow trace's event count must not grow the
// digester's heap. The sketch estimates converge on the exact
// sort-based percentiles as streams grow; TestDigestQuantileTolerance
// bounds the error against the retired exact implementation.

import (
	"io"
	"math"
	"sort"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/units"
)

// delayDigest accumulates one delay stream in O(1) space: exact
// count/mean/min/max via Welford moments, estimated percentiles via
// three P² sketches.
type delayDigest struct {
	moments       stats.Moments
	p50, p90, p99 stats.P2Quantile
}

func (d *delayDigest) init() {
	d.p50.Init(0.50)
	d.p90.Init(0.90)
	d.p99.Init(0.99)
}

func (d *delayDigest) add(t units.Time) {
	v := float64(t)
	d.moments.Add(v)
	d.p50.Add(v)
	d.p90.Add(v)
	d.p99.Add(v)
}

// quantiles converts the accumulated stream into the Quantiles form
// the Summary reports. Max is exact (moments); the percentiles are the
// sketch estimates.
func (d *delayDigest) quantiles() Quantiles {
	q := Quantiles{N: int(d.moments.N())}
	if q.N == 0 {
		return q
	}
	round := func(v float64) units.Time { return units.Time(math.Round(v)) }
	q.P50, q.P90, q.P99 = round(d.p50.Value()), round(d.p90.Value()), round(d.p99.Value())
	q.Max = round(d.moments.Max())
	return q
}

type hopDigest struct {
	counts    [numKinds]int
	drops     int
	maxQLen   int32
	residence delayDigest
}

type flowDigest struct {
	delivered int
	drops     int
	oneWay    delayDigest
}

type timelineKey struct {
	hop HopID
	t   int64
}

// Digester folds a trace into a Summary one event at a time. Feed it
// with Add (any order the trace supplies) and seal it with Summarize;
// AnalyzeStream is a thin wrapper over it.
type Digester struct {
	bucket units.Time

	count       uint64
	first, last units.Time

	hops     []hopDigest // indexed by HopID, grown on demand
	flows    map[packet.FlowID]*flowDigest
	timeline map[timelineKey]*VerdictBucket
}

// NewDigester returns an empty digester; bucket sets the
// verdict-timeline granularity (<= 0 means 1 s).
func NewDigester(bucket units.Time) *Digester {
	if bucket <= 0 {
		bucket = units.Second
	}
	return &Digester{
		bucket:   bucket,
		flows:    map[packet.FlowID]*flowDigest{},
		timeline: map[timelineKey]*VerdictBucket{},
	}
}

func (g *Digester) flow(id packet.FlowID) *flowDigest {
	f := g.flows[id]
	if f == nil {
		f = &flowDigest{}
		f.oneWay.init()
		g.flows[id] = f
	}
	return f
}

// Add digests one event.
func (g *Digester) Add(e Event) {
	if e.Kind >= numKinds {
		return // corrupt kind; skip rather than crash the tool
	}
	if g.count == 0 {
		g.first = e.T
	}
	g.last = e.T
	g.count++
	for int(e.Hop) >= len(g.hops) {
		g.hops = append(g.hops, hopDigest{})
		g.hops[len(g.hops)-1].residence.init()
	}
	h := &g.hops[e.Hop]
	h.counts[e.Kind]++
	if e.Kind.IsDrop() {
		h.drops++
		g.flow(e.Flow).drops++
	}
	switch e.Kind {
	case LinkEnqueue:
		if e.QLen > h.maxQLen {
			h.maxQLen = e.QLen
		}
	case LinkTx:
		h.residence.add(e.Delay)
	case Deliver:
		f := g.flow(e.Flow)
		f.delivered++
		f.oneWay.add(e.Delay)
	case PolicerPass, PolicerDemote, PolicerDrop, ShaperRelease, ShaperDrop:
		k := timelineKey{e.Hop, int64(e.T / g.bucket)}
		b := g.timeline[k]
		if b == nil {
			b = &VerdictBucket{Start: units.Time(k.t) * g.bucket}
			g.timeline[k] = b
		}
		switch e.Kind {
		case PolicerPass, ShaperRelease:
			b.Pass++
		case PolicerDemote:
			b.Demote++
		default:
			b.Drops++
		}
	}
}

// Events reports how many events have been digested.
func (g *Digester) Events() uint64 { return g.count }

// Summarize seals the digest into the Summary form, resolving hop ids
// against the trace's name table (ids beyond it get numeric names).
// seen is the run's total emitted count from the trace trailer.
func (g *Digester) Summarize(hopNames []string, seen uint64) *Summary {
	s := &Summary{Seen: seen, Retained: int(g.count)}
	if g.count > 0 {
		s.Span = g.last - g.first
	}
	for id := range g.hops {
		h := &g.hops[id]
		total := 0
		for _, c := range h.counts {
			total += c
		}
		if total == 0 {
			continue // interned but never hit, or a hole in the id space
		}
		s.Hops = append(s.Hops, HopStats{
			Name: hopName(hopNames, HopID(id)), Counts: h.counts, Drops: h.drops,
			MaxQLen: h.maxQLen, Residence: h.residence.quantiles(),
		})
	}
	flowIDs := make([]packet.FlowID, 0, len(g.flows))
	for id := range g.flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		f := g.flows[id]
		s.Flows = append(s.Flows, FlowStats{
			Flow: id, Delivered: f.delivered, Drops: f.drops,
			OneWay: f.oneWay.quantiles(),
		})
	}
	for k, b := range g.timeline {
		b.Hop = hopName(hopNames, k.hop)
		s.Timeline = append(s.Timeline, *b)
	}
	sort.Slice(s.Timeline, func(i, j int) bool {
		if s.Timeline[i].Hop != s.Timeline[j].Hop {
			return s.Timeline[i].Hop < s.Timeline[j].Hop
		}
		return s.Timeline[i].Start < s.Timeline[j].Start
	})
	return s
}

// StreamInfo describes what AnalyzeStream read.
type StreamInfo struct {
	Events uint64 // events decoded and digested
	Hops   int    // size of the trace's hop name table
	Seen   uint64 // events emitted during the traced run
}

// AnalyzeStream digests a trace in one pass directly from its encoded
// form, without ever materialising the event slice, so peak memory is
// bounded by the digest state, not the trace length.
func AnalyzeStream(r io.Reader, bucket units.Time) (*Summary, StreamInfo, error) {
	g := NewDigester(bucket)
	hops, seen, err := streamV2(r, g.Add)
	if err != nil {
		return nil, StreamInfo{}, err
	}
	return g.Summarize(hops, seen), StreamInfo{Events: g.Events(), Hops: len(hops), Seen: seen}, nil
}
