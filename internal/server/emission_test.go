package server

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// emission is one packet as the next hop saw it.
type emission struct {
	at                       units.Time
	frame, frag, frags, size int
}

// packetSizes splits a frame into MTU-bounded packets, headers included.
func packetSizes(frame int) []int {
	var sizes []int
	for rem := frame; rem > 0; rem -= MaxUDPPayload {
		sizes = append(sizes, min(rem, MaxUDPPayload)+UDPHeader)
	}
	return sizes
}

// pacedAcross spreads a frame's packets evenly over spread.
func pacedAcross(spread units.Time) func([]int) []units.Time {
	return func(sizes []int) []units.Time {
		at := make([]units.Time, len(sizes))
		for j := range at {
			at[j] = units.Time(int64(spread) * int64(j) / int64(len(sizes)))
		}
		return at
	}
}

// backToBack serialises a frame's packets at rate.
func backToBack(rate units.BitRate) func([]int) []units.Time {
	return func(sizes []int) []units.Time {
		at := make([]units.Time, len(sizes))
		for j := 1; j < len(at); j++ {
			at[j] = at[j-1] + rate.TxTime(sizes[j-1])
		}
		return at
	}
}

// TestEmissionMatchesClosedForm: every UDP server hands the next hop
// frame i's packets from i·interval on, in fragment order, at the
// offsets its pacing rule gives — the order a timer per packet would
// produce, out of the FIFO send ring.
func TestEmissionMatchesClosedForm(t *testing.T) {
	enc := tiny(t, 1.0e6)
	interval := video.FrameInterval()
	cases := []struct {
		name    string
		start   func(*sim.Simulator, packet.Handler)
		offsets func(sizes []int) []units.Time
	}{
		{"Paced", func(s *sim.Simulator, next packet.Handler) {
			(&Paced{Sim: s, Enc: enc, Flow: 1, Next: next}).Start()
		}, pacedAcross(units.Time(float64(interval) * 0.95))},
		{"Burst", func(s *sim.Simulator, next packet.Handler) {
			(&Burst{Sim: s, Enc: enc, Flow: 1, Next: next}).Start()
		}, backToBack(100 * units.Mbps)},
		{"WMTUDP", func(s *sim.Simulator, next packet.Handler) {
			(&WMTUDP{Sim: s, Enc: enc, Flow: 1, Next: next}).Start()
		}, backToBack(10 * units.Mbps)},
		{"Adaptive", func(s *sim.Simulator, next packet.Handler) {
			(&Adaptive{Sim: s, Encs: []*video.Encoding{enc}, Flow: 1, Next: next}).Start()
		}, pacedAcross(interval * 8 / 10)},
	}
	const frames = 40
	for _, tc := range cases {
		s := sim.New(1)
		var got []emission
		tc.start(s, packet.HandlerFunc(func(p *packet.Packet) {
			if p.SentAt != s.Now() {
				t.Fatalf("%s: SentAt %v stamped at %v", tc.name, p.SentAt, s.Now())
			}
			got = append(got, emission{p.SentAt, p.FrameSeq, p.FragIndex, p.FragCount, p.Size})
		}))
		s.RunUntil(frames*interval - 1)
		var want []emission
		for i := 0; i < frames; i++ {
			sizes := packetSizes(enc.Frames[i].Size)
			for j, off := range tc.offsets(sizes) {
				want = append(want, emission{units.Time(i)*interval + off, i, j, len(sizes), sizes[j]})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets in %d frames, want %d", tc.name, len(got), frames, len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: packet %d is %+v, want %+v", tc.name, k, got[k], want[k])
			}
		}
	}
}

// TestShippedEncodingsFitTheFrameInterval checks the send ring's
// precondition where it is not true by construction: the back-to-back
// servers need a frame's packets serialised before the next frame
// starts, so the largest frame of every shipped encoding must fit one
// frame interval at the default host rates — Burst's with its rate
// multiplier at the 2.5× cap.
func TestShippedEncodingsFitTheFrameInterval(t *testing.T) {
	for _, clip := range []*video.Clip{video.Lost(), video.Dark()} {
		encs := []*video.Encoding{video.CachedVBR(clip, units.BitRate(video.WMVCapKbps)*units.Kbps)}
		for _, rate := range []units.BitRate{1.0e6, 1.5e6, 1.7e6} {
			encs = append(encs, video.CachedCBR(clip, rate))
		}
		for _, enc := range encs {
			largest := 0
			for _, f := range enc.Frames {
				largest = max(largest, f.Size)
			}
			for _, host := range []struct {
				server string
				frame  int
				rate   units.BitRate
			}{
				{"Burst", int(2.5 * float64(largest)), 100 * units.Mbps},
				{"WMTUDP", largest, 10 * units.Mbps},
			} {
				sizes := packetSizes(host.frame)
				at := backToBack(host.rate)(sizes)
				end := at[len(at)-1] + host.rate.TxTime(sizes[len(sizes)-1])
				if end >= video.FrameInterval() {
					t.Errorf("%s %s: a %d-byte frame takes %v on a %s %v host, frame interval %v",
						clip.Name, enc.Name, host.frame, end, host.server, host.rate, video.FrameInterval())
				}
			}
		}
	}
}

// TestSendRingRefusesOverlappingFrames: a host too slow to serialise a
// frame inside its interval would need the next frame's first packet to
// overtake this frame's last; the FIFO ring cannot do that, so it must
// panic rather than send packets at the wrong instants.
func TestSendRingRefusesOverlappingFrames(t *testing.T) {
	s := sim.New(1)
	var sink packet.Sink
	(&WMTUDP{Sim: s, Enc: tiny(t, 1.0e6), Flow: 1, Next: &sink, HostRate: 500 * units.Kbps}).Start()
	defer func() {
		if recover() == nil {
			t.Error("frames overlapped on a 500 kbps host without a panic")
		}
	}()
	s.RunUntil(units.Second)
}
