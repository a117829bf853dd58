// Package server implements the streaming servers whose behaviours the
// paper contrasts (§2.2, §4):
//
//   - Paced: the IBM VideoCharger™ profile — small application
//     messages, transmission of each frame paced across the frame
//     interval. Used for the QBone experiments.
//   - Burst: the Microsoft Netshow Theater™ / 2netfx ThunderCastIP™
//     profile — application datagrams up to 16280 bytes that the IP
//     stack fragments into back-to-back 1500-byte packets, plus the
//     naive rate-adaptation loop that misreads policing losses and
//     spirals (the paper found these servers unusable behind an EF
//     policer and excluded them from the main experiments).
//   - WMT: the Windows Media™ profile — capped-VBR content, reduced
//     message sizes that fit single packets, streamed over UDP (bursty)
//     or over TCP with server-side stream thinning. Used for the local
//     testbed experiments.
//
// # Frame clock and send ring
//
// The servers differ in how they cut a frame into packets and when
// each packet leaves; how they are scheduled is one mechanism. A clock
// is a self-re-arming sim.Timer that steps a server once per frame
// interval (and, for the two adaptive servers, once per feedback
// period), so a stream keeps one pending event however long the clip.
// A sendRing is the UDP send path: a frame step pushes its stamped
// fragments in send order, each push arms one event, and each event
// transmits the ring head.
//
// Two ordering rules make this equal to scheduling every frame and
// every packet as its own callback. The clock arms step i+1 before it
// runs step i, so the next frame's event carries a lower sequence
// number than anything frame i's sends schedule, and same-instant ties
// resolve as if the whole clip had been scheduled up front. The ring
// is FIFO, so fragment send instants must not decrease in push order:
// a frame's fragments must all leave before the next frame's first.
// Every shipped encoding meets that at the default pacing and host
// rates; push panics on a configuration that does not.
package server

import (
	"repro/internal/client"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/video"
)

// UDPHeader is the IP+UDP overhead added to each application message.
const UDPHeader = 28

// MaxUDPPayload is the payload that fits one Ethernet MTU.
const MaxUDPPayload = units.EthernetMTU - UDPHeader

// stepper is what a clock drives.
type stepper interface{ step(i int) }

// clock calls src.step(i) at first + i·every for i in [0, n), or
// without end when n < 0.
type clock struct {
	sim          *sim.Simulator
	src          stepper
	first, every units.Time
	next, n      int
}

func (c *clock) start(s *sim.Simulator, src stepper, first, every units.Time, n int) {
	*c = clock{sim: s, src: src, first: first, every: every, n: n}
	if n != 0 {
		s.AtTimer(first, c)
	}
}

// Fire arms the following step, then runs this one (see the package
// comment for why in that order).
func (c *clock) Fire(units.Time) {
	i := c.next
	c.next++
	if c.next != c.n {
		c.sim.AtTimer(c.first+units.Time(int64(c.next))*c.every, c)
	}
	c.src.step(i)
}

// sendRing is the UDP send path of one server: pending fragments in
// send order, one armed event per fragment.
type sendRing struct {
	sim     *sim.Simulator
	pool    *packet.Pool
	flow    packet.FlowID
	next    packet.Handler
	sent    *int
	bytes   *int64 // nil when the server keeps no byte count
	pending packet.Ring
	last    units.Time // send instant of the newest fragment pushed
}

func (r *sendRing) start(s *sim.Simulator, pool *packet.Pool, flow packet.FlowID, next packet.Handler, sent *int, bytes *int64) {
	r.sim, r.pool, r.flow, r.next, r.sent, r.bytes = s, pool, flow, next, sent, bytes
	pool.Lend(&r.pending)
}

// push stamps fragment j of frags of a frame and queues it to leave
// after from now.
func (r *sendRing) push(frame, j, frags, payload int, after units.Time) {
	at := r.sim.Now() + after
	if at < r.last {
		panic("server: a frame's packets outlast its frame interval; the send ring needs non-decreasing send instants")
	}
	r.last = at
	p := r.pool.Get()
	p.ID, p.Flow, p.Proto = packet.NewID(), r.flow, packet.UDP
	p.Size = payload + UDPHeader
	p.FrameSeq, p.FragIndex, p.FragCount = frame, j, frags
	r.pending.Push(p)
	r.sim.AtTimer(at, r)
}

// Fire transmits the oldest pending fragment.
func (r *sendRing) Fire(now units.Time) {
	p := r.pending.Pop()
	p.SentAt = now
	*r.sent++
	if r.bytes != nil {
		*r.bytes += int64(p.Size)
	}
	r.next.Handle(p)
}

// pushPaced cuts a size-byte frame into msg-byte messages and spaces
// their sends evenly across spread.
func (r *sendRing) pushPaced(frame, size, msg int, spread units.Time) {
	frags := fragments(size, msg)
	for j := 0; j < frags; j++ {
		r.push(frame, j, frags, fragPayload(size, msg, j, frags),
			units.Time(int64(spread)*int64(j)/int64(frags)))
	}
}

// fragments reports how many msg-byte messages carry a size-byte frame;
// an empty frame still sends one.
func fragments(size, msg int) int {
	if n := (size + msg - 1) / msg; n > 0 {
		return n
	}
	return 1
}

// fragPayload is the size of message j of frags: msg bytes, the
// remainder for the last.
func fragPayload(size, msg, j, frags int) int {
	if j == frags-1 {
		return size - j*msg
	}
	return msg
}

// Paced streams an encoding over UDP, sending each frame's packets
// evenly spaced across a fraction of the frame interval — the
// transmission pacing that made the VideoCharger usable behind an EF
// policer.
type Paced struct {
	Sim  *sim.Simulator
	Enc  *video.Encoding
	Flow packet.FlowID
	Next packet.Handler
	Pool *packet.Pool // packet arena; nil falls back to the heap

	Sent      int
	SentBytes int64

	frames clock
	out    sendRing
}

// paceSpread is the fraction of the frame interval across which Paced
// spreads a frame's packets, each carrying one MTU's worth of payload.
// A frame's fragments finish before the next frame starts, as they do
// for any spread ≤ 1: the last fragment leaves at
// spread·(frags-1)/frags of the interval, strictly inside it.
// flowbatch.PacedSchedule precomputes the same plan.
const paceSpread = 0.95

// Start schedules the whole clip's transmission from now.
func (s *Paced) Start() { s.StartAt(s.Sim.Now()) }

// StartAt schedules the whole clip's transmission from time t.
func (s *Paced) StartAt(t units.Time) {
	s.out.start(s.Sim, s.Pool, s.Flow, s.Next, &s.Sent, &s.SentBytes)
	s.frames.start(s.Sim, s, t, video.FrameInterval(), len(s.Enc.Frames))
}

func (s *Paced) step(i int) {
	s.out.pushPaced(i, s.Enc.Frames[i].Size, MaxUDPPayload,
		units.Time(float64(video.FrameInterval())*paceSpread))
}

// MaxDatagram is the largest application datagram the bursty servers
// generate (§2.2: "up to 16280 bytes long").
const MaxDatagram = 16280

// Burst streams an encoding the way the large-datagram servers did:
// each frame becomes one application datagram (up to MaxDatagram)
// whose IP fragments leave the host back-to-back at the access-link
// rate. Its Adaptation loop reproduces the §4 death spiral: policing
// losses with low delivery delay are read as "more bandwidth needed",
// the rate multiplier rises, losses get worse, and the server
// eventually collapses to a minimal rate and starts over.
type Burst struct {
	Sim      *sim.Simulator
	Enc      *video.Encoding
	Flow     packet.FlowID
	Next     packet.Handler
	Pool     *packet.Pool  // packet arena; nil falls back to the heap
	HostRate units.BitRate // NIC serialization rate; default 100 Mbps

	// Adaptation configuration.
	Adapt          bool
	FeedbackEvery  units.Time // default 1 s
	lossProbe      func() (lossFrac float64, avgDelay units.Time)
	rateMultiplier float64

	Sent        int
	SentBytes   int64
	Multipliers []float64 // rate multiplier history, one per feedback tick

	frames, feedback clock
	out              sendRing
}

// burstFeedback steps a Burst's adaptation loop.
type burstFeedback Burst

func (b *burstFeedback) step(int) { (*Burst)(b).adaptTick() }

// SetFeedback wires the client-side probe the adaptation loop polls.
func (b *Burst) SetFeedback(probe func() (float64, units.Time)) { b.lossProbe = probe }

// Start schedules the transmission.
func (b *Burst) Start() {
	if b.HostRate <= 0 {
		b.HostRate = 100 * units.Mbps
	}
	if b.FeedbackEvery <= 0 {
		b.FeedbackEvery = units.Second
	}
	b.rateMultiplier = 1
	b.out.start(b.Sim, b.Pool, b.Flow, b.Next, &b.Sent, &b.SentBytes)
	now := b.Sim.Now()
	b.frames.start(b.Sim, b, now, video.FrameInterval(), len(b.Enc.Frames))
	if b.Adapt && b.lossProbe != nil {
		b.feedback.start(b.Sim, (*burstFeedback)(b), now+b.FeedbackEvery, b.FeedbackEvery, -1)
	}
}

func (b *Burst) adaptTick() {
	loss, delay := b.lossProbe()
	switch {
	case loss > 0.35:
		// Catastrophic: back way off, then start climbing again.
		b.rateMultiplier = 0.3
	case loss > 0.005 && delay < 50*units.Millisecond:
		// Losses but fast delivery: the EF guarantee confuses the
		// estimator into believing bandwidth is plentiful, so it
		// *raises* the rate to "make up for the losses".
		b.rateMultiplier *= 1.25
		if b.rateMultiplier > 2.5 {
			b.rateMultiplier = 2.5
		}
	case loss == 0:
		// Creep back toward nominal.
		b.rateMultiplier = 0.8*b.rateMultiplier + 0.2
	}
	b.Multipliers = append(b.Multipliers, b.rateMultiplier)
}

func (b *Burst) step(i int) {
	size := int(float64(b.Enc.Frames[i].Size) * b.rateMultiplier)
	if size < 200 {
		size = 200
	}
	// Split the frame into application datagrams; each datagram is
	// fragmented by the IP stack into MTU-sized packets that leave
	// back-to-back at the host NIC rate. One lost fragment loses the
	// datagram, and hence the frame.
	frags := 0
	remaining := size
	for remaining > 0 {
		dg := remaining
		if dg > MaxDatagram {
			dg = MaxDatagram
		}
		frags += (dg + MaxUDPPayload - 1) / MaxUDPPayload
		remaining -= dg
	}
	var at units.Time
	sent := 0
	remaining = size
	for remaining > 0 {
		payload := remaining
		if payload > MaxUDPPayload {
			payload = MaxUDPPayload
		}
		b.out.push(i, sent, frags, payload, at)
		at += b.HostRate.TxTime(payload + UDPHeader)
		sent++
		remaining -= payload
	}
}

// WMTUDP streams a capped-VBR encoding over UDP with reduced message
// sizes (each message fits one packet), but sends each frame's packets
// back-to-back at the host rate — the burstiness that made local UDP
// streaming "too bursty to allow meaningful experimentation" (§4.2).
type WMTUDP struct {
	Sim      *sim.Simulator
	Enc      *video.Encoding
	Flow     packet.FlowID
	Next     packet.Handler
	Pool     *packet.Pool  // packet arena; nil falls back to the heap
	HostRate units.BitRate // default 10 Mbps Ethernet

	Sent      int
	SentBytes int64

	frames clock
	out    sendRing
}

// Start schedules the transmission.
func (s *WMTUDP) Start() {
	if s.HostRate <= 0 {
		s.HostRate = 10 * units.Mbps
	}
	s.out.start(s.Sim, s.Pool, s.Flow, s.Next, &s.Sent, &s.SentBytes)
	s.frames.start(s.Sim, s, s.Sim.Now(), video.FrameInterval(), len(s.Enc.Frames))
}

func (s *WMTUDP) step(i int) {
	size := s.Enc.Frames[i].Size
	frags := fragments(size, MaxUDPPayload)
	var at units.Time
	for j := 0; j < frags; j++ {
		n := fragPayload(size, MaxUDPPayload, j, frags)
		s.out.push(i, j, frags, n, at)
		at += s.HostRate.TxTime(n + UDPHeader)
	}
}

// WMTTCP streams a capped-VBR encoding over the simulated TCP
// connection, with server-side stream thinning: when the unsent
// backlog exceeds the thinning threshold (the connection cannot sustain
// the encoding rate), frames are skipped instead of queued, which is
// how the real server kept a live stream live. Thinned frames are the
// "lost frames" of the TCP experiments.
type WMTTCP struct {
	Sim    *sim.Simulator
	Enc    *video.Encoding
	Sender *tcpsim.Sender
	Asm    *client.StreamAssembler

	FramesSent    int
	FramesThinned int

	// thinningBacklog in bytes of queued-but-unsent data above which
	// frames are dropped. A streaming server must stay "live", so it is
	// only half a second of content at the encoding cap — once the
	// connection falls further behind than that, frames are skipped
	// rather than queued.
	thinningBacklog int64
	frames          clock
}

// Start schedules the clip's frame writes.
func (s *WMTTCP) Start() {
	s.thinningBacklog = int64(float64(s.Enc.Target) / 8 / 2)
	s.frames.start(s.Sim, s, s.Sim.Now(), video.FrameInterval(), len(s.Enc.Frames))
}

// step writes frame i to the connection, or thins it.
func (s *WMTTCP) step(i int) {
	if s.Sender.Backlog() > s.thinningBacklog {
		s.FramesThinned++
		return
	}
	length := int64(s.Enc.Frames[i].Size + client.FrameHeaderSize)
	s.Asm.RegisterMessage(i, length)
	s.FramesSent++
	s.Sender.Write(length)
}

// Adaptive selects among multiple encodings of the same clip (the WMV
// multi-rate feature, §2.2/§3.3.2) based on client loss feedback, and
// streams the current selection frame by frame over UDP with pacing.
// It demonstrates "intelligent streaming": unlike Burst's estimator it
// treats loss as congestion and steps *down*.
type Adaptive struct {
	Sim  *sim.Simulator
	Encs []*video.Encoding // ordered low rate -> high rate
	Flow packet.FlowID
	Next packet.Handler
	Pool *packet.Pool // packet arena; nil falls back to the heap

	FeedbackEvery units.Time
	lossProbe     func() float64

	level    int
	Switches int
	Sent     int
	Levels   []int // level history per feedback tick

	frames, feedback clock
	out              sendRing
}

// adaptiveFeedback steps an Adaptive's level selection.
type adaptiveFeedback Adaptive

func (a *adaptiveFeedback) step(int) { (*Adaptive)(a).adaptTick() }

// SetFeedback wires the loss probe.
func (a *Adaptive) SetFeedback(probe func() float64) { a.lossProbe = probe }

// Level reports the current encoding level.
func (a *Adaptive) Level() int { return a.level }

// Start begins streaming at the highest level.
func (a *Adaptive) Start() {
	if a.FeedbackEvery <= 0 {
		a.FeedbackEvery = units.Second
	}
	a.level = len(a.Encs) - 1
	a.out.start(a.Sim, a.Pool, a.Flow, a.Next, &a.Sent, nil)
	now := a.Sim.Now()
	a.frames.start(a.Sim, a, now, video.FrameInterval(), a.Encs[0].Clip.FrameCount())
	if a.lossProbe != nil {
		a.feedback.start(a.Sim, (*adaptiveFeedback)(a), now+a.FeedbackEvery, a.FeedbackEvery, -1)
	}
}

func (a *Adaptive) adaptTick() {
	loss := a.lossProbe()
	switch {
	case loss > 0.02 && a.level > 0:
		a.level--
		a.Switches++
	case loss < 0.002 && a.level < len(a.Encs)-1:
		a.level++
		a.Switches++
	}
	a.Levels = append(a.Levels, a.level)
}

func (a *Adaptive) step(i int) {
	a.out.pushPaced(i, a.Encs[a.level].Frames[i].Size, MaxUDPPayload, video.FrameInterval()*8/10)
}
