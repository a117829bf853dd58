package tokenbucket

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/units"
)

// SRTCM is the Single Rate Three Color Marker of RFC 2697 (Heinanen &
// Guérin): a committed bucket (CIR, CBS) and an excess bucket (EBS)
// fed by committed-bucket overflow. Packets are green if they fit the
// committed bucket, yellow if they fit the excess bucket, red
// otherwise. Color-blind mode only, which is what an ingress marker
// for unmarked video traffic runs.
type SRTCM struct {
	cir units.BitRate

	// Committed (C) and excess (E) token counts, scaled like bucket.
	scaledC, scaledE     int64
	scaledCBS, scaledEBS int64
	lastUpdate           units.Time
}

// NewSRTCM returns a marker with committed rate cir, committed burst
// cbs and excess burst ebs (both in bytes). Both buckets start full.
func NewSRTCM(cir units.BitRate, cbs, ebs units.ByteSize) *SRTCM {
	if cir <= 0 || cbs <= 0 || ebs < 0 {
		panic("tokenbucket: bad srTCM parameters")
	}
	m := &SRTCM{cir: cir}
	m.scaledCBS = int64(cbs) * tokenScale
	m.scaledEBS = int64(ebs) * tokenScale
	m.scaledC = m.scaledCBS
	m.scaledE = m.scaledEBS
	return m
}

func (m *SRTCM) refill(now units.Time) {
	if now <= m.lastUpdate {
		return
	}
	dt := now - m.lastUpdate
	m.lastUpdate = now
	gain := int64(float64(dt) * float64(m.cir) / 8)
	m.scaledC += gain
	if m.scaledC > m.scaledCBS {
		// Overflow of the committed bucket feeds the excess bucket.
		m.scaledE += m.scaledC - m.scaledCBS
		m.scaledC = m.scaledCBS
		if m.scaledE > m.scaledEBS {
			m.scaledE = m.scaledEBS
		}
	}
}

// mark colors a packet of n bytes arriving at now, debiting the
// appropriate bucket per RFC 2697 §3 (color-blind).
func (m *SRTCM) mark(now units.Time, n int) packet.Color {
	m.refill(now)
	need := int64(n) * tokenScale
	if m.scaledC >= need {
		m.scaledC -= need
		return packet.Green
	}
	if m.scaledE >= need {
		m.scaledE -= need
		return packet.Yellow
	}
	return packet.Red
}

// colorToDSCP maps a marker verdict to the AF class-1 drop precedence
// code points, the mapping an AF ingress would apply.
func colorToDSCP(c packet.Color) packet.DSCP {
	switch c {
	case packet.Green:
		return packet.AF11
	case packet.Yellow:
		return packet.AF12
	default:
		return packet.AF13
	}
}

// AFMarker is a conditioning element that colors packets with a three
// color marker and re-marks their DSCP accordingly, forwarding
// everything (AF marks rather than drops — §2.1 of the paper).
type AFMarker struct {
	clock Clock
	srtcm *SRTCM
	next  packet.Handler

	// Tap, when set, receives a verdict per packet: PolicerPass for
	// green, PolicerDemote (Flag = the Color) for yellow and red.
	Tap ptrace.Tap
	Hop ptrace.HopID

	Green, Yellow, Red int
}

// NewAFMarkerSR returns an AF marker driven by an srTCM profile.
func NewAFMarkerSR(clock Clock, m *SRTCM, next packet.Handler) *AFMarker {
	return &AFMarker{clock: clock, srtcm: m, next: next}
}

// SetNext redirects marked traffic to h (topology-builder wiring; not
// for use once packets are flowing).
func (a *AFMarker) SetNext(h packet.Handler) { a.next = h }

// Handle colors and forwards pkt.
func (a *AFMarker) Handle(pkt *packet.Packet) {
	c := a.srtcm.mark(a.clock.Now(), pkt.Size)
	pkt.Color = c
	pkt.DSCP = colorToDSCP(c)
	switch c {
	case packet.Green:
		a.Green++
	case packet.Yellow:
		a.Yellow++
	default:
		a.Red++
	}
	if a.Tap != nil {
		k := ptrace.PolicerPass
		if c != packet.Green {
			k = ptrace.PolicerDemote
		}
		a.Tap.Emit(ptrace.Event{
			Kind: k, Hop: a.Hop, Flow: pkt.Flow, PktID: pkt.ID,
			Size: int32(pkt.Size), DSCP: pkt.DSCP, FrameSeq: int32(pkt.FrameSeq),
			Flag: uint8(c),
		})
	}
	a.next.Handle(pkt)
}
