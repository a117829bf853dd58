package topology

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// The lazy-port equivalence row: an untraced QBone computes its best
// effort at lazy ports, a traced one carries every packet, and the two
// must leave the same state. The lazy ports order same-instant events by
// one rule: events at one nanosecond fire in the order of the instants
// they were scheduled at, and two that one element scheduled at the same
// instant in the order it scheduled them. That is the calendar's (time,
// sequence) order, since the sequence grows with the scheduling instant,
// except for two events at one time scheduled at one instant by
// different elements, which a lazy port cannot order; it counts them
// (QBone.Ties), and every run here must count none. Package link forces
// each same-instant case on a scripted line; these rows check the
// preset over seeds, path lengths, loads and both border modes.

// qboneState is everything a run leaves that a lazy port must keep.
type qboneState struct {
	Classes   [][]queue.ClassStats // hops, access, campus
	Sent      []int
	SentBytes []int64
	Busy      []units.Time
	Cross     []int
	Packets   int
	Bytes     int64
	Records   []trace.FrameRecord
	Delay     stats.Summary
	Jitter    stats.RunningMean
	Border    string
	Now       units.Time
}

// runQBone builds cfg, per packet when traced, runs it to horizon (0:
// the whole clip, through Run) and reads its state and tie count.
func runQBone(cfg QBoneConfig, horizon units.Time, traced bool) (qboneState, int) {
	if traced {
		cfg.Trace = ptrace.NewRecorder(ptrace.Config{Capacity: 256})
	}
	q := BuildQBone(cfg)
	if horizon == 0 {
		q.Run()
	} else {
		q.Server.Start()
		q.run(horizon)
		q.Client.Finish()
	}
	st := qboneState{Packets: q.Client.Packets, Bytes: q.Client.PacketsBytes,
		Records: q.Client.Trace().Records, Delay: q.Delay.Delay, Jitter: q.Delay.Jitter, Now: q.Sim.Now()}
	for _, l := range append(append([]*link.Link{}, q.Hops...), q.Net.Link("access"), q.Net.Link("campus")) {
		st.Classes = append(st.Classes, l.Sched.Classes())
		st.Sent = append(st.Sent, l.Sent)
		st.SentBytes = append(st.SentBytes, l.SentBytes)
		st.Busy = append(st.Busy, l.BusyTime)
	}
	for _, c := range q.Cross {
		st.Cross = append(st.Cross, c.Sent)
	}
	if q.Policer != nil {
		st.Border = fmt.Sprintf("policer %d/%d", q.Policer.Passed, q.Policer.Dropped)
	} else {
		st.Border = fmt.Sprintf("shaper %d/%d/%d", q.Shaper.Passed, q.Shaper.Delayed, q.Shaper.Dropped)
	}
	return st, q.Ties()
}

// TestLazyCrossEquivalence runs every path length of 1–6 hops at each
// cross load, alternating drop and shape, over twelve seeds, to a
// horizon a few seconds into the clip; and four whole-clip points on the
// paper's four-hop path, two at 2 % load and two at the default 15 %. Traced (per packet) and untraced (lazy) runs
// must agree on every port's classes and counters, the cross sources,
// the client's counters and frame trace, the delay collector and the
// clock.
func TestLazyCrossEquivalence(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	seeds := []uint64{117, 2001, 7, 1, 2, 3, 5, 11, 42, 99, 1234, 31337}
	type row struct {
		cfg     QBoneConfig
		horizon units.Time
	}
	var rows []row
	i := 0
	for hops := 1; hops <= 6; hops++ {
		for li, load := range []float64{0.02, 0.15, 0.3, 0.8} {
			rows = append(rows, row{
				cfg: QBoneConfig{Seed: seeds[i%len(seeds)], Enc: enc, TokenRate: 1.1e6, Depth: 3000,
					Shape: (hops+li)%2 == 1, Hops: hops, CrossLoad: load},
				horizon: 1500*units.Millisecond + units.Time(i)*37*units.Millisecond,
			})
			i++
		}
	}
	for _, seed := range []uint64{117, 2001} {
		rows = append(rows, row{cfg: QBoneConfig{Seed: seed, Enc: enc, TokenRate: 1.1e6, Depth: 3000, Hops: 4, CrossLoad: 0.02}})
	}
	// The whole clip at the default load: the qbone-figs configuration.
	for _, seed := range []uint64{2001, 117} {
		rows = append(rows, row{cfg: QBoneConfig{Seed: seed, Enc: enc, TokenRate: 1.1e6, Depth: 3000, Hops: 4, CrossLoad: crossLoad}})
	}
	for _, r := range rows {
		c := r.cfg
		name := fmt.Sprintf("seed%d/hops%d/load%.2f/shape=%v/horizon%v", c.Seed, c.Hops, c.CrossLoad, c.Shape, r.horizon)
		t.Run(name, func(t *testing.T) {
			want, _ := runQBone(c, r.horizon, true)
			got, ties := runQBone(c, r.horizon, false)
			if ties != 0 {
				t.Errorf("lazy ports counted %d unresolvable ties", ties)
			}
			if want.Packets == len(want.Records) || len(want.Records) == 0 {
				t.Fatalf("reference run carried %d packets for %d frames: no cross traffic or no video reached the client", want.Packets, len(want.Records))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lazy run diverged from the per-packet one\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestLazyCrossEventBudget pins the event count of the probe point of
// finding (h) — seed 1, Lost at 1.7 Mb/s, token 1.9 Mb/s, B = 3000, the
// default four hops and 15 % cross load. Traced, it runs per packet and
// must fire exactly the 1,679,522 events it always has. Untraced, its
// best effort is computed: with cross load ≈ 0 the video path alone
// fires 155,678 events, and the lazy ports add only the wake-ups where an
// EF packet waits behind a best-effort one, so it must fire at most a
// fifth of the traced count. The work the lazy ports compute instead is
// pinned from their own counters: the best-effort arrivals (admitted or
// dropped), the best-effort transmission ends, and every transmission.
func TestLazyCrossEventBudget(t *testing.T) {
	const (
		beArrivals = 801734
		beEnds     = 647366
		sent       = 701696
	)
	const traced = 1679522
	cfg := QBoneConfig{Seed: 1, Enc: video.CachedCBR(video.Lost(), 1.7e6), TokenRate: 1.9e6, Depth: 3000}
	ref := cfg
	ref.Trace = ptrace.NewRecorder(ptrace.Config{Capacity: 256})
	q := BuildQBone(ref)
	q.Run()
	if got := q.Sim.Fired(); got != traced {
		t.Errorf("traced run fired %d events, want %d: the per-packet reference moved", got, traced)
	}
	lazy := BuildQBone(cfg)
	lazy.Run()
	got := lazy.Sim.Fired()
	t.Logf("untraced run fired %d events, %.1f× fewer", got, float64(traced)/float64(got))
	if got*5 > traced {
		t.Errorf("untraced run fired %d events, want at most %d (a fifth of the per-packet run)", got, traced/5)
	}
	if n := lazy.Ties(); n != 0 {
		t.Errorf("lazy ports counted %d unresolvable ties", n)
	}
	var arrivals, ends, all int
	for _, l := range append(append([]*link.Link{}, lazy.Hops...), lazy.Net.Link("access")) {
		c := l.Sched.Classes()
		arrivals += c[1].Enqueued + c[1].Dropped
		ends += l.Sent - c[0].Enqueued
		all += l.Sent
	}
	if arrivals != beArrivals || ends != beEnds || all != sent {
		t.Errorf("lazy ports computed %d best-effort arrivals, %d best-effort transmission ends and %d transmissions, want %d, %d and %d",
			arrivals, ends, all, beArrivals, beEnds, sent)
	}
}
