package topology

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
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

// runQBone builds cfg, per packet when rec is set (which then records
// the run), runs it to horizon (0: the whole clip, through Run) and reads
// its state and tie count.
func runQBone(cfg QBoneConfig, horizon units.Time, rec *ptrace.Recorder) (qboneState, int) {
	cfg.Trace = rec
	q := BuildQBone(cfg)
	if horizon == 0 {
		q.Run()
	} else {
		q.Server.Start()
		q.run(horizon, true)
		q.Client.Finish()
	}
	return readQBone(q), q.Ties()
}

// readQBone reads the state a run of q left.
func readQBone(q *QBone) qboneState {
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
	return st
}

// videoRecorder records a reference run's video packets, all of them.
func videoRecorder() *ptrace.Recorder {
	return ptrace.NewRecorder(ptrace.Config{Capacity: 1 << 16, Flows: []packet.FlowID{VideoFlow}})
}

// videoPassage reads a reference run's video trace (videoRecorder):
// whether an EF packet reached hop 0 while another was still there,
// queued or on the wire, and how many reached hop 0 but neither the
// client nor a queue drop by the end of the run.
func videoPassage(t *testing.T, rec *ptrace.Recorder) (behindEF bool, inLine int) {
	t.Helper()
	if rec.Overwritten() != 0 {
		t.Fatalf("video trace overwrote %d events", rec.Overwritten())
	}
	hop0 := rec.Hop(hopName(0))
	held, line := 0, map[uint64]bool{}
	for _, e := range rec.Data().Events {
		switch {
		case e.Hop == hop0 && e.Kind == ptrace.LinkEnqueue:
			behindEF = behindEF || held > 0
			held++
			line[e.PktID] = true
		case e.Hop == hop0 && e.Kind == ptrace.LinkTx:
			held--
		case e.Kind == ptrace.Deliver || e.Kind == ptrace.QueueDrop:
			delete(line, e.PktID)
		}
	}
	return behindEF, len(line)
}

// lastHop0Arrival is the instant the last video packet to reach hop 0 by
// t did so, on the per-packet run of cfg.
func lastHop0Arrival(t *testing.T, cfg QBoneConfig, by units.Time) units.Time {
	t.Helper()
	rec := videoRecorder()
	runQBone(cfg, by, rec)
	hop0, last := rec.Hop(hopName(0)), units.Time(-1)
	for _, e := range rec.Data().Events {
		if e.Hop == hop0 && e.Kind == ptrace.LinkEnqueue {
			last = e.T
		}
	}
	if last < 0 {
		t.Fatalf("no video packet reached hop 0 by %v", by)
	}
	return last
}

// wholeClipConfigs are the whole-clip points of TestLazyCrossEquivalence
// on the paper's four-hop path: two at 2 % load and three at the default
// 15 %, the qbone-figs configuration and the shaped border among them.
func wholeClipConfigs(enc *video.Encoding) []QBoneConfig {
	var cs []QBoneConfig
	for _, seed := range []uint64{117, 2001} {
		cs = append(cs, QBoneConfig{Seed: seed, Enc: enc, TokenRate: 1.1e6, Depth: 3000, Hops: 4, CrossLoad: 0.02})
	}
	for _, seed := range []uint64{2001, 117} {
		cs = append(cs, QBoneConfig{Seed: seed, Enc: enc, TokenRate: 1.1e6, Depth: 3000, Hops: 4, CrossLoad: crossLoad})
	}
	return append(cs, QBoneConfig{Seed: 117, Enc: enc, TokenRate: 1.1e6, Depth: 3000, Shape: true, Hops: 4, CrossLoad: crossLoad})
}

// TestLazyCrossEquivalence runs every path length of 1–6 hops at each
// cross load, alternating drop and shape, over twelve seeds, to a
// horizon a few seconds into the clip; and five whole-clip points on the
// paper's four-hop path, two at 2 % load and three at the default 15 %,
// one of them shaped. Forced rows, at every path length in both border
// modes and at seeds 117 and 2001, bunch the video with a 100 ms campus
// jitter and pass the bunches through a deep bucket, so EF packets queue
// behind EF at hop 0, and stop 1 ms after an EF packet reached hop 0, so
// it is still in the line; the per-packet run must show both. Traced
// (per packet) and untraced (lazy) runs must agree on every port's
// classes and counters, the cross sources, the client's counters and
// frame trace, the delay collector and the clock.
func TestLazyCrossEquivalence(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	seeds := []uint64{117, 2001, 7, 1, 2, 3, 5, 11, 42, 99, 1234, 31337}
	type row struct {
		cfg     QBoneConfig
		horizon units.Time
		forced  bool
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
	for _, c := range wholeClipConfigs(enc) {
		rows = append(rows, row{cfg: c})
	}
	for hops := 1; hops <= 6; hops++ {
		for si, seed := range []uint64{117, 2001} {
			rows = append(rows, row{cfg: QBoneConfig{Seed: seed, Enc: enc, TokenRate: 4e6, Depth: 30000,
				Shape: (hops+si)%2 == 1, Hops: hops, CampusJitter: 100 * units.Millisecond, CrossLoad: crossLoad}, forced: true})
		}
	}
	for _, r := range rows {
		c := r.cfg
		name := fmt.Sprintf("seed%d/hops%d/load%.2f/shape=%v/horizon%v", c.Seed, c.Hops, c.CrossLoad, c.Shape, r.horizon)
		if r.forced {
			name = fmt.Sprintf("seed%d/hops%d/shape=%v/forced", c.Seed, c.Hops, c.Shape)
		}
		t.Run(name, func(t *testing.T) {
			horizon := r.horizon
			if r.forced {
				horizon = lastHop0Arrival(t, c, 1500*units.Millisecond) + units.Millisecond
			}
			rec := videoRecorder()
			want, _ := runQBone(c, horizon, rec)
			got, ties := runQBone(c, horizon, nil)
			if r.forced {
				if behindEF, inLine := videoPassage(t, rec); !behindEF || inLine == 0 {
					t.Fatalf("per-packet run to %v: EF queued behind EF at hop 0 %v, %d EF packets in the line at the horizon; want both", horizon, behindEF, inLine)
				}
			}
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

// videoOutcome is what a run leaves of the video: the client's frame
// trace, the delay collector, the border's counts, the clock, and each
// port's EF class (admitted, dropped, bytes).
type videoOutcome struct {
	Records []trace.FrameRecord
	Delay   stats.Summary
	Jitter  stats.RunningMean
	Border  string
	Now     units.Time
	EF      []queue.ClassStats
}

// video reads the video's outcome off a run's state.
func (st qboneState) video() videoOutcome {
	v := videoOutcome{Records: st.Records, Delay: st.Delay, Jitter: st.Jitter, Border: st.Border, Now: st.Now}
	for _, cs := range st.Classes[:len(st.Classes)-1] { // not the campus link
		ef := cs[0]
		ef.Queued, ef.QueuedBytes = 0, 0
		v.EF = append(v.EF, ef)
	}
	return v
}

// notAbove lists every cumulative counter of got that exceeds want's.
func notAbove(got, want qboneState) []string {
	var over []string
	check := func(name string, g, w int64) {
		if g > w {
			over = append(over, fmt.Sprintf("%s %d > %d", name, g, w))
		}
	}
	for i := range want.Classes {
		for j, w := range want.Classes[i] {
			g := got.Classes[i][j]
			check(fmt.Sprintf("port %d %s enqueued", i, w.Name), int64(g.Enqueued), int64(w.Enqueued))
			check(fmt.Sprintf("port %d %s dropped", i, w.Name), int64(g.Dropped), int64(w.Dropped))
			check(fmt.Sprintf("port %d %s bytes", i, w.Name), g.Bytes, w.Bytes)
		}
		check(fmt.Sprintf("port %d sent", i), int64(got.Sent[i]), int64(want.Sent[i]))
		check(fmt.Sprintf("port %d sent bytes", i), got.SentBytes[i], want.SentBytes[i])
		check(fmt.Sprintf("port %d busy", i), int64(got.Busy[i]), int64(want.Busy[i]))
	}
	for i := range want.Cross {
		check(fmt.Sprintf("cross %d sent", i), int64(got.Cross[i]), int64(want.Cross[i]))
	}
	check("client packets", int64(got.Packets), int64(want.Packets))
	check("client bytes", got.Bytes, want.Bytes)
	return over
}

// TestRunVideoEquivalence runs whole clips three ways: per packet, and
// lazy through Run and through RunVideo, which stops computing the best
// effort at the last video packet. The configurations are the whole-clip
// points of TestLazyCrossEquivalence and seven more, over seeds 117, 2001
// and 7, every path length of 1–6 hops, loads of 2–80 % and both border
// modes. RunVideo must leave the video's outcome (frame trace, delay
// samples, jitter, border counts, each port's EF class) and the clock
// equal to both other runs, with no tie, and no cumulative counter above
// Run's.
func TestRunVideoEquivalence(t *testing.T) {
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	cfgs := wholeClipConfigs(enc)
	for _, r := range []struct {
		seed  uint64
		hops  int
		load  float64
		shape bool
	}{
		{7, 1, 0.8, false}, {117, 2, 0.3, true}, {2001, 3, 0.8, true}, {7, 3, 0.15, false},
		{7, 5, 0.15, true}, {2001, 6, 0.3, false}, {7, 6, 0.02, true},
	} {
		cfgs = append(cfgs, QBoneConfig{Seed: r.seed, Enc: enc, TokenRate: 1.1e6, Depth: 3000,
			Shape: r.shape, Hops: r.hops, CrossLoad: r.load})
	}
	for _, c := range cfgs {
		t.Run(fmt.Sprintf("seed%d/hops%d/load%.2f/shape=%v", c.Seed, c.Hops, c.CrossLoad, c.Shape), func(t *testing.T) {
			ref, _ := runQBone(c, 0, ptrace.NewRecorder(ptrace.Config{Capacity: 256}))
			full, _ := runQBone(c, 0, nil)
			q := BuildQBone(c)
			q.RunVideo()
			got := readQBone(q)
			if n := q.Ties(); n != 0 {
				t.Errorf("RunVideo counted %d unresolvable ties", n)
			}
			if len(ref.Records) == 0 || ref.Packets == len(ref.Records) {
				t.Fatalf("reference run carried %d packets for %d frames: no cross traffic or no video reached the client", ref.Packets, len(ref.Records))
			}
			if !reflect.DeepEqual(got.video(), full.video()) {
				t.Errorf("RunVideo's video outcome diverged from Run's\n got %+v\nwant %+v", got.video(), full.video())
			}
			if !reflect.DeepEqual(got.video(), ref.video()) {
				t.Errorf("RunVideo's video outcome diverged from the per-packet run's\n got %+v\nwant %+v", got.video(), ref.video())
			}
			if over := notAbove(got, full); len(over) > 0 {
				t.Errorf("RunVideo computed more than Run: %v", over)
			}
		})
	}
}

// TestLazyCrossEventBudget pins the event count of the probe point of
// finding (h) — seed 1, Lost at 1.7 Mb/s, token 1.9 Mb/s, B = 3000, the
// default four hops and 15 % cross load. Traced, it runs per packet and
// must fire exactly the 1,679,522 events it always has. Untraced, its
// line is computed: no port schedules an event, so it fires exactly the
// 47,018 events of its server, campus link and jitter (the border acts
// inside the jitter's), at most a fifth of the traced count. The count
// must not move with the line's length, load or seed either, which a
// port firing any event of its own would make it do. The work the lazy
// ports compute instead is pinned from their own counters: the
// best-effort arrivals (admitted or dropped), the best-effort
// transmission ends, and every transmission. RunVideo, the figure path,
// fires the same events and computes the line only up to the last video
// packet: at most three quarters of Run's best-effort arrivals, since it
// leaves out the 30 s after the clip.
func TestLazyCrossEventBudget(t *testing.T) {
	const (
		beArrivals = 801734
		beEnds     = 647366
		sent       = 701696

		videoArrivals = 564946
		videoEnds     = 453313
		videoSent     = 507643
	)
	const traced, untraced = 1679522, 47018
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
	if got != untraced {
		t.Errorf("untraced run fired %d events, want exactly %d", got, untraced)
	}
	for _, c := range []QBoneConfig{
		{Seed: 117, Hops: 1, CrossLoad: 0.8},
		{Seed: 2001, Hops: 6, CrossLoad: 0.02},
		{Seed: 7, Hops: 3, CrossLoad: 0.3},
	} {
		c.Enc, c.TokenRate, c.Depth = cfg.Enc, cfg.TokenRate, cfg.Depth
		other := BuildQBone(c)
		other.Run()
		if n := other.Sim.Fired(); n != untraced {
			t.Errorf("seed %d, %d hops, load %.2f fired %d events, want the probe point's %d: a port of the line schedules events",
				c.Seed, c.Hops, c.CrossLoad, n, untraced)
		}
	}
	if n := lazy.Ties(); n != 0 {
		t.Errorf("lazy ports counted %d unresolvable ties", n)
	}
	if arrivals, ends, all := lineWork(lazy); arrivals != beArrivals || ends != beEnds || all != sent {
		t.Errorf("lazy ports computed %d best-effort arrivals, %d best-effort transmission ends and %d transmissions, want %d, %d and %d",
			arrivals, ends, all, beArrivals, beEnds, sent)
	}

	// The figure path: RunVideo fires the same calendar and stops the
	// line at the last video packet, short of the 30 s tail.
	fig := BuildQBone(cfg)
	fig.RunVideo()
	if got := fig.Sim.Fired(); got != untraced {
		t.Errorf("RunVideo fired %d events, want Run's %d", got, untraced)
	}
	if n := fig.Ties(); n != 0 {
		t.Errorf("RunVideo counted %d unresolvable ties", n)
	}
	arrivals, ends, all := lineWork(fig)
	t.Logf("RunVideo computed %d best-effort arrivals (%.1f %% of Run's)", arrivals, 100*float64(arrivals)/beArrivals)
	if arrivals != videoArrivals || ends != videoEnds || all != videoSent {
		t.Errorf("RunVideo computed %d best-effort arrivals, %d best-effort transmission ends and %d transmissions, want %d, %d and %d",
			arrivals, ends, all, videoArrivals, videoEnds, videoSent)
	}
	if arrivals*4 > beArrivals*3 {
		t.Errorf("RunVideo computed %d best-effort arrivals, want at most %d (three quarters of Run's)", arrivals, beArrivals*3/4)
	}
}

// lineWork reads what q's lazy ports computed: the best-effort arrivals
// (admitted or dropped), the best-effort transmission ends (every
// transmission but one per EF packet admitted) and every transmission.
func lineWork(q *QBone) (arrivals, ends, all int) {
	for _, l := range append(append([]*link.Link{}, q.Hops...), q.Net.Link("access")) {
		c := l.Sched.Classes()
		arrivals += c[1].Enqueued + c[1].Dropped
		ends += l.Sent - c[0].Enqueued
		all += l.Sent
	}
	return arrivals, ends, all
}
