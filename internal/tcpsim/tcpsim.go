// Package tcpsim is a compact TCP implementation over the simulated
// network: slow start, congestion avoidance, fast retransmit/fast
// recovery, RTO with Jacobson/Karels estimation, and cumulative ACKs.
// It exists because the local-testbed experiments (§4.2) found that
// "TCP streaming, because of the intrinsic rate adaptation capability
// of TCP, resulted in a smoother traffic flow that produced better
// quality results" — reproducing Figs. 15–16 requires a real
// congestion-controlled sender interacting with the policer.
//
// Payload bytes are virtual: only lengths travel through the network,
// and message framing is reconstructed on the receive side via
// client.StreamAssembler.
package tcpsim

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/units"
)

// MSS is the maximum segment payload; with the 40-byte TCP/IP header
// a full segment fills one 1500-byte Ethernet MTU.
const (
	MSS        = 1460
	HeaderSize = 40
)

// Sender is the TCP sending endpoint.
type Sender struct {
	Sim  *sim.Simulator
	Flow packet.FlowID
	Out  packet.Handler // forward path toward the receiver
	Pool *packet.Pool   // segment arena; nil falls back to the heap

	// Congestion state (bytes).
	cwnd     float64
	ssthresh float64
	rwnd     int64 // receiver window bound on flight
	sndUna   int64
	sndNxt   int64
	appBytes int64 // bytes the application has written so far

	// Loss recovery.
	dupAcks       int
	inRecovery    bool
	recoverSeq    int64
	rtoRecovering bool
	rtoRecover    int64
	rtoTimer      sim.Handle
	rto           units.Time
	srtt          units.Time
	rttvar        units.Time
	hasRTT        bool
	sendTimes     map[int64]units.Time // seq -> first-send time (for RTT)
	retransSeqs   map[int64]bool

	// LimitedTransmit enables RFC 3042 (January 2001 — newer than the
	// stacks in the paper's testbed, so off by default): the first two
	// duplicate ACKs each release a new segment so small windows can
	// reach fast retransmit instead of stalling into an RTO. Enabling
	// it is the "what if" ablation for the B=3000 TCP curves.
	LimitedTransmit bool

	// Tap, when set, receives TCPSend (Flag=1 for retransmissions),
	// TCPAck (Flag=1 for duplicates, Delay=smoothed RTT) and TCPRTO
	// (Delay=the expired timeout) events; QLen carries the flight in
	// MSS-sized segments.
	Tap ptrace.Tap
	Hop ptrace.HopID

	// Stats.
	Sent        int
	Retransmits int
	Timeouts    int

	onDeliverable func() // kicked when window may have opened
}

// emit records a TCP endpoint event; flight is reported in segments.
func (t *Sender) emit(k ptrace.Kind, pktID uint64, size int, flag uint8, delay units.Time) {
	t.Tap.Emit(ptrace.Event{
		Kind: k, Hop: t.Hop, Flow: t.Flow, PktID: pktID,
		Size: int32(size), FrameSeq: -1, Flag: flag, Delay: delay,
		QLen: int32((t.sndNxt - t.sndUna + MSS - 1) / MSS),
	})
}

// NewSender returns a sender in initial slow start.
func NewSender(s *sim.Simulator, flow packet.FlowID, out packet.Handler) *Sender {
	return &Sender{
		Sim: s, Flow: flow, Out: out,
		cwnd:        2 * MSS,
		ssthresh:    17520, // Windows-2000-era default window
		rwnd:        17520,
		rto:         1 * units.Second,
		sendTimes:   make(map[int64]units.Time),
		retransSeqs: make(map[int64]bool),
	}
}

// Write makes n more application bytes available to send.
func (t *Sender) Write(n int64) {
	t.appBytes += n
	t.trySend()
}

// Backlog reports unsent application bytes (used by server-side
// stream thinning).
func (t *Sender) Backlog() int64 { return t.appBytes - t.sndNxt }

// Unacked reports bytes in flight.
func (t *Sender) Unacked() int64 { return t.sndNxt - t.sndUna }

// Cwnd reports the congestion window in bytes.
func (t *Sender) Cwnd() float64 { return t.cwnd }

// Delivered reports cumulatively acknowledged bytes.
func (t *Sender) Delivered() int64 { return t.sndUna }

func (t *Sender) trySend() {
	for t.sndNxt < t.appBytes && float64(t.sndNxt-t.sndUna) < t.cwnd &&
		t.sndNxt-t.sndUna < t.rwnd {
		size := t.appBytes - t.sndNxt
		if size > MSS {
			size = MSS
		}
		t.sendSegment(t.sndNxt, int(size), false)
		t.sndNxt += size
	}
	t.armRTO()
}

func (t *Sender) sendSegment(seq int64, size int, retrans bool) {
	p := t.Pool.Get()
	p.ID, p.Flow, p.Proto = packet.NewID(), t.Flow, packet.TCP
	p.Size, p.Seq = size+HeaderSize, seq
	p.SentAt, p.FrameSeq = t.Sim.Now(), -1
	t.Sent++
	if retrans {
		t.Retransmits++
		t.retransSeqs[seq] = true
	} else if _, dup := t.sendTimes[seq]; !dup {
		t.sendTimes[seq] = t.Sim.Now()
	}
	if t.Tap != nil {
		var flag uint8
		if retrans {
			flag = 1
		}
		t.emit(ptrace.TCPSend, p.ID, p.Size, flag, 0)
	}
	t.Out.Handle(p)
}

// rtoFire is the Sender's retransmission-timeout Timer (a pointer
// conversion, so arming the RTO never allocates a closure).
type rtoFire Sender

// Fire runs the retransmission timeout.
func (t *rtoFire) Fire(units.Time) { (*Sender)(t).onRTO() }

// armRTO starts the retransmission timer if it is not already
// running. The timer tracks the *oldest* outstanding segment, so
// ordinary sends must not push it back — only restartRTO (new
// cumulative ACK) or expiry reset it.
func (t *Sender) armRTO() {
	if t.rtoTimer.Active() {
		return
	}
	if t.sndUna >= t.sndNxt {
		return // nothing outstanding
	}
	t.rtoTimer = t.Sim.AfterTimer(t.rto, (*rtoFire)(t))
}

// restartRTO re-bases the timer after progress.
func (t *Sender) restartRTO() {
	t.rtoTimer.Cancel()
	t.armRTO()
}

func (t *Sender) onRTO() {
	t.rtoTimer = sim.Handle{} // the firing consumed the event
	if t.sndUna >= t.sndNxt {
		return
	}
	t.Timeouts++
	if t.Tap != nil {
		t.emit(ptrace.TCPRTO, 0, 0, 0, t.rto)
	}
	t.ssthresh = maxf(float64(t.sndNxt-t.sndUna)/2, 2*MSS)
	t.cwnd = MSS
	t.rto *= 2
	if t.rto > 60*units.Second {
		t.rto = 60 * units.Second
	}
	t.dupAcks = 0
	t.inRecovery = false
	// Go-back-N from the last cumulative ACK; subsequent ACKs keep the
	// retransmission pipeline going (see HandleAck).
	t.rtoRecovering = true
	t.rtoRecover = t.sndNxt
	size := t.sndNxt - t.sndUna
	if size > MSS {
		size = MSS
	}
	t.sendSegment(t.sndUna, int(size), true)
	t.armRTO()
}

// OnDeliverable registers a callback fired whenever acked progress may
// allow the application to push more data (used by thinning servers).
func (t *Sender) OnDeliverable(fn func()) { t.onDeliverable = fn }

// HandleAck processes — and consumes — a cumulative acknowledgment
// arriving from the receiver's reverse path: the ACK packet is
// released to the sender's pool before returning.
func (t *Sender) HandleAck(p *packet.Packet) {
	ack := p.Ack
	if t.Tap != nil {
		var flag uint8
		if ack == t.sndUna && t.sndNxt > t.sndUna {
			flag = 1 // duplicate
		}
		t.emit(ptrace.TCPAck, p.ID, p.Size, flag, t.srtt)
	}
	t.Pool.Put(p)
	switch {
	case ack > t.sndUna:
		// New data acknowledged.
		acked := ack - t.sndUna
		flightBefore := t.sndNxt - t.sndUna
		if st, ok := t.sendTimes[t.sndUna]; ok && !t.retransSeqs[t.sndUna] {
			t.updateRTT(t.Sim.Now() - st)
		}
		for s := range t.sendTimes {
			if s < ack {
				delete(t.sendTimes, s)
				delete(t.retransSeqs, s)
			}
		}
		t.sndUna = ack
		t.dupAcks = 0
		// An ACK of new data collapses any exponential RTO backoff
		// back to the estimator's value.
		if t.hasRTT {
			t.setRTO()
		}
		switch {
		case t.inRecovery:
			if ack >= t.recoverSeq {
				t.inRecovery = false
				t.cwnd = t.ssthresh
			} else {
				// NewReno partial ACK: retransmit the next hole and
				// deflate the window by the amount acknowledged, so
				// a long recovery cannot snowball the inflation.
				size := minI64(MSS, t.sndNxt-t.sndUna)
				if size > 0 {
					t.sendSegment(t.sndUna, int(size), true)
				}
				t.cwnd = maxf(t.ssthresh, t.cwnd-float64(acked)+MSS)
			}
		case t.rtoRecovering:
			if ack >= t.rtoRecover {
				t.rtoRecovering = false
			} else {
				// Post-timeout go-back-N, ACK-clocked one segment at
				// a time: a single spaced retransmission conforms at
				// even the smallest policer bucket, where a
				// back-to-back pair would be re-dropped and the
				// recovery would never converge. cwnd stays at one
				// segment until the hole field is drained.
				size := minI64(MSS, t.sndNxt-t.sndUna)
				if size > 0 {
					t.sendSegment(t.sndUna, int(size), true)
				}
			}
		case float64(flightBefore) < t.cwnd*0.75:
			// Congestion window validation: an application-limited
			// sender was not probing the path, so the window it
			// never filled must not grow — otherwise a later backlog
			// burst dumps an unvalidated window onto the policer.
		case t.cwnd < t.ssthresh:
			t.cwnd += float64(minI64(acked, MSS)) // slow start
		default:
			t.cwnd += float64(MSS) * float64(MSS) / t.cwnd // CA
		}
		t.restartRTO()
		t.trySend()
		if t.onDeliverable != nil {
			t.onDeliverable()
		}
	case ack == t.sndUna && t.sndNxt > t.sndUna:
		t.dupAcks++
		if t.LimitedTransmit && t.dupAcks < 3 && !t.inRecovery && !t.rtoRecovering {
			// Limited transmit (RFC 3042): the first two duplicate
			// ACKs each release one new segment, so that small
			// windows — the normal state behind a 2-MTU policer —
			// generate the third duplicate ACK that triggers fast
			// retransmit instead of stalling into an RTO.
			size := t.appBytes - t.sndNxt
			if size > MSS {
				size = MSS
			}
			if size > 0 && t.sndNxt-t.sndUna < t.rwnd {
				t.sendSegment(t.sndNxt, int(size), false)
				t.sndNxt += size
				t.armRTO()
			}
		}
		if t.dupAcks == 3 && !t.inRecovery {
			// Fast retransmit + fast recovery (Reno).
			t.inRecovery = true
			t.recoverSeq = t.sndNxt
			t.ssthresh = maxf(float64(t.sndNxt-t.sndUna)/2, 2*MSS)
			t.cwnd = t.ssthresh + 3*MSS
			size := minI64(MSS, t.sndNxt-t.sndUna)
			t.sendSegment(t.sndUna, int(size), true)
			t.armRTO()
		} else if t.inRecovery {
			t.cwnd += MSS // inflate per extra dupack
			t.trySend()
		}
	}
}

func (t *Sender) updateRTT(sample units.Time) {
	if sample <= 0 {
		return
	}
	if !t.hasRTT {
		t.hasRTT = true
		t.srtt = sample
		t.rttvar = sample / 2
	} else {
		d := t.srtt - sample
		if d < 0 {
			d = -d
		}
		t.rttvar = (3*t.rttvar + d) / 4
		t.srtt = (7*t.srtt + sample) / 8
	}
	t.setRTO()
}

// setRTO derives the retransmission timeout from the estimator with
// the conventional clamps.
func (t *Sender) setRTO() {
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < 200*units.Millisecond {
		t.rto = 200 * units.Millisecond
	}
	if t.rto > 60*units.Second {
		t.rto = 60 * units.Second
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Receiver is the TCP receiving endpoint: it reassembles the byte
// stream, delivers in-order progress, and emits cumulative ACKs on the
// reverse path.
type Receiver struct {
	Sim     *sim.Simulator
	Flow    packet.FlowID
	AckOut  packet.Handler // reverse path toward the sender
	Pool    *packet.Pool   // ACK arena + release target for data segments
	Deliver func(newBytes int64)

	rcvNxt int64
	ooo    map[int64]int // seq -> payload size of out-of-order segments

	Received int
	Acked    int
}

// NewReceiver returns a receiver delivering in-order progress to
// deliver.
func NewReceiver(s *sim.Simulator, flow packet.FlowID, ackOut packet.Handler, deliver func(int64)) *Receiver {
	return &Receiver{Sim: s, Flow: flow, AckOut: ackOut, Deliver: deliver, ooo: make(map[int64]int)}
}

// Handle consumes a data segment from the network: only lengths and
// sequence numbers matter (payload bytes are virtual), so the packet
// is read, released to the pool, and acknowledged.
func (r *Receiver) Handle(p *packet.Packet) {
	r.Received++
	payload := int64(p.Size - HeaderSize)
	if payload < 0 {
		payload = 0
	}
	seq := p.Seq
	r.Pool.Put(p)
	if seq+payload > r.rcvNxt {
		if seq <= r.rcvNxt {
			// In-order (possibly overlapping) data: advance.
			advance := seq + payload - r.rcvNxt
			r.rcvNxt = seq + payload
			// Drain any contiguous out-of-order segments.
			for {
				sz, ok := r.ooo[r.rcvNxt]
				if !ok {
					break
				}
				delete(r.ooo, r.rcvNxt)
				r.rcvNxt += int64(sz)
				advance += int64(sz)
			}
			if r.Deliver != nil && advance > 0 {
				r.Deliver(advance)
			}
		} else {
			r.ooo[seq] = int(payload)
		}
	}
	r.sendAck()
}

func (r *Receiver) sendAck() {
	r.Acked++
	ack := r.Pool.Get()
	ack.ID, ack.Flow, ack.Proto = packet.NewID(), r.Flow, packet.TCP
	ack.Size, ack.Ack, ack.IsAck = HeaderSize, r.rcvNxt, true
	ack.SentAt, ack.FrameSeq = r.Sim.Now(), -1
	r.AckOut.Handle(ack)
}
