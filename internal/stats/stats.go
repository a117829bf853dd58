// Package stats provides the summary statistics the measurement
// harness reports: running moments, percentiles, and
// per-packet delay/jitter collectors for characterizing what the EF
// service actually delivered (the network-level side of the paper's
// quality story: small delay and jitter inside the EF aggregate).
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/packet"
	"repro/internal/units"
)

// Summary accumulates running moments plus the full sample set, which
// is what an exact percentile needs: it costs one float64 per sample,
// so it is kept only for a series whose percentiles are read. A series
// read only for its mean is a RunningMean, and one too long to keep is
// a Moments or a P2Quantile. Swap lets the owner of a reused sample
// array lend it in and take it back.
type Summary struct {
	samples []float64
	sum     float64
	sumSq   float64
	sorted  bool
}

// add records one sample.
func (s *Summary) add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = false
}

// n reports the sample count.
func (s *Summary) n() int { return len(s.samples) }

// Swap empties s onto buf's storage and returns the sample array s held
// before, at the capacity it grew to. A nil buf makes the next add grow
// a fresh array from the heap.
func (s *Summary) Swap(buf []float64) []float64 {
	old := s.samples
	*s = Summary{samples: buf[:0]}
	return old
}

// Mean reports the sample mean (0 for no samples).
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// variance reports the population variance.
func (s *Summary) variance() float64 {
	n := float64(len(s.samples))
	if n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/n - m*m
	if v < 0 {
		v = 0 // float cancellation guard
	}
	return v
}

// stddev reports the population standard deviation.
func (s *Summary) stddev() float64 { return math.Sqrt(s.variance()) }

// min reports the smallest sample (0 for none).
func (s *Summary) min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[0]
}

// max reports the largest sample (0 for none).
func (s *Summary) max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.samples[n-1]
	}
	return s.samples[lo]*(1-frac) + s.samples[lo+1]*frac
}

// String renders a one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.n(), s.Mean(), s.stddev(), s.min(), s.Percentile(50), s.Percentile(99), s.max())
}

// RunningMean is the mean of a sample stream that keeps no samples: a
// sum in arrival order and a count, so Mean is bit-identical to
// Summary.Mean over the same stream (Welford's Moments would round
// differently). The zero value is ready to use.
type RunningMean struct {
	sum float64
	n   int
}

// add records one sample.
func (m *RunningMean) add(v float64) {
	m.sum += v
	m.n++
}

// Mean reports the sample mean (0 for no samples).
func (m *RunningMean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// DelayCollector is a packet.Handler wrapper that records one-way
// delay (now minus SentAt) and inter-arrival jitter of everything
// passing through it, then forwards to Next. Delay keeps one sample
// per measured packet, because its exact 99th percentile is read;
// Jitter is read only for its mean and keeps none. A worker that runs
// job after job lends Delay its sample array through Swap (see
// client.Scratch.LendDelays) and takes it back at the job boundary.
type DelayCollector struct {
	Clock interface{ Now() units.Time }
	Next  packet.Handler

	// Match restricts measurement to matching packets (everything is
	// still forwarded). nil measures every packet.
	Match func(*packet.Packet) bool

	Delay  Summary     // seconds
	Jitter RunningMean // seconds, |gap - prevGap| (RFC 3550 style, unsmoothed)

	lastArrival units.Time
	lastGap     units.Time
	haveGap     bool
	haveArrival bool
}

// Handle records and forwards p.
func (d *DelayCollector) Handle(p *packet.Packet) {
	if d.Match != nil && !d.Match(p) {
		if d.Next != nil {
			d.Next.Handle(p)
		}
		return
	}
	now := d.Clock.Now()
	if p.SentAt > 0 || p.ID != 0 {
		d.Delay.add((now - p.SentAt).Seconds())
	}
	if d.haveArrival {
		gap := now - d.lastArrival
		if d.haveGap {
			diff := gap - d.lastGap
			if diff < 0 {
				diff = -diff
			}
			d.Jitter.add(diff.Seconds())
		}
		d.lastGap = gap
		d.haveGap = true
	}
	d.lastArrival = now
	d.haveArrival = true
	if d.Next != nil {
		d.Next.Handle(p)
	}
}
