// Package client implements the instrumented receiver: it reassembles
// video frames from UDP fragments (or from an in-order TCP byte
// stream), timestamps each completed frame, and records the timing
// trace the renderer-concealment step and the VQM tool consume — the
// role the modified DirectShow filter graph played in the paper
// (§3.1.1–3.1.2).
//
// UDP reassembly hashes nothing and allocates nothing per frame. A slot
// table of one int32 per clip frame — grown if a source sends a later
// frame — points into a fragSlab of 16-byte fragStates taken in
// first-seen order from fixed chunks of 1,024, so the slab grows without
// ever copying. Handle only marks a frame complete; Finish walks the
// slot table in frame order, applies the Tolerance model, counts the
// frames it will emit and writes them, already sorted, into one record
// array sized once. The slab is deliberately not a dense per-frame
// array, and nothing but the slot table is sized to the clip. On the
// benchmark's wide-batched workload, where ≈ 92 % of packets die at the
// bottleneck and each of 320 clients sees a small fraction of its 2,150
// frames, a []fragState of clipFrames entries (with the trace pre-capped
// the same way) took alloc_mb from 24.6 to 64.9 and peak_rss_mb from
// 28.1 to 73.5. Four bytes per clip frame, 16 per frame seen and one
// 40-byte record per frame kept holds memory to what the receiver keeps
// in that lossy regime.
//
// # Storage is lent
//
// A figure is a sweep: the same clip through a freshly built testbed at
// dozens of grid points, so a receiver's trace, reassembly states and
// slot table would be rebuilt once per client per point and thrown away.
// Instead the storage belongs to the runner worker. A receiver with a
// Scratch borrows from it on its first packet (a UDP or Stream) or first
// registered message (a StreamAssembler) — one that never hears from the
// network borrows nothing. A UDP takes a slot table, and its reassembly
// states come from the one fragSlab every receiver of the job shares, so
// the job's receivers fill the same chunks rather than each growing its
// own; its record array is lent at Finish, exactly sized if the lent one
// is too small. A Stream and a StreamAssembler grow what they got by
// append. A testbed's delay tap (a stats.DelayCollector) borrows the
// array its delay samples fill through LendDelays when it is built. So
// what is lent is what an earlier job used, never more. The
// owner calls Scratch.Reset when the job's results have been reduced to
// plain values (experiment.RunScenarioOpts does, after every job): every
// buffer goes back at its capacity, the slab keeps the chunks the job
// filled, and the borrowers are left empty. That is why a *trace.Trace
// from Trace or Finish must not outlive the job that built the receiver:
// after Reset its records belong to the next one. Without a Scratch the
// same code takes a receiver-private fragSlab and makes the rest from the
// heap, and nothing is ever taken back.
package client

import (
	"slices"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// Clock exposes simulated time.
type Clock interface {
	Now() units.Time
}

// fragState accumulates one frame's reassembly progress: 16 bytes per
// frame seen. The frame's sequence number is the slot that points here.
type fragState struct {
	last  units.Time // arrival of the latest counted fragment
	total int32      // the fragment count the sender declared
	got   uint32     // fragments counted (the fragsGot bits), plus fragFirst and fragDone
}

const (
	fragFirst uint32 = 1 << 30 // the frame's first fragment arrived
	fragDone  uint32 = 1 << 31 // complete, or concealed by Finish: later fragments are ignored
	fragsGot         = fragFirst - 1
)

func (st *fragState) received() int32 { return int32(st.got & fragsGot) }

// fragChunk is how many fragStates a fragSlab chunk holds (16 KB).
const fragChunk = 1024

// fragSlab hands out fragStates from fixed chunks that never move, so
// growing it copies nothing and a reset can keep chunks for the next
// job. A Scratch's slab serves every receiver of a job.
type fragSlab struct {
	chunks []*[fragChunk]fragState
	n      int // states taken since the last reset
}

// take hands out a fresh state for a frame of total fragments and
// returns 1 + its index, the slot-table form.
func (s *fragSlab) take(total int32) int32 {
	i := s.n
	if i/fragChunk == len(s.chunks) {
		s.chunks = append(s.chunks, new([fragChunk]fragState))
	}
	s.chunks[i/fragChunk][i%fragChunk] = fragState{total: total}
	s.n++
	return int32(s.n)
}

// at returns the state a slot-table entry points at.
func (s *fragSlab) at(slot int32) *fragState {
	i := int(slot) - 1
	return &s.chunks[i/fragChunk][i%fragChunk]
}

// reset forgets every state, keeps the chunks they filled and lets the
// rest be collected.
func (s *fragSlab) reset() {
	used := (s.n + fragChunk - 1) / fragChunk
	clear(s.chunks[used:])
	s.chunks = s.chunks[:used]
	s.n = 0
}

// UDP is a datagram receiver. By default a frame is usable only when
// all of its fragments arrive — the IP-reassembly semantics that made
// the large-datagram servers so fragile (one policed fragment kills
// the whole datagram and hence the frame). A Tolerance function can
// relax this for servers that send independent small messages, where
// a decoder conceals a missing slice as long as the frame header
// (first fragment) made it.
type UDP struct {
	clock Clock
	tr    *trace.Trace

	// Pool, when set, receives every delivered packet: the client is
	// the terminal owner on the forward path and retains nothing but
	// the frame trace (values, never packet pointers).
	Pool *packet.Pool

	// Scratch, when set, lends the trace records, the reassembly slab
	// and the slot table (see the package comment); nil makes them from
	// the heap.
	Scratch *Scratch

	// Tap, when set, receives a Deliver event per packet with the
	// one-way delay since the sender stamped it.
	Tap ptrace.Tap
	Hop ptrace.HopID

	base    units.Time
	started bool

	frameInterval units.Time
	// slots[seq] is 1 + the frame's state index in slab, 0 while no
	// fragment of it has arrived. slab is the Scratch's, or own.
	slots []int32
	slab  *fragSlab
	own   fragSlab

	// Tolerance reports how many lost fragments of a frame with the
	// given fragment count the decoder can conceal. nil means zero.
	Tolerance func(frags int) int

	Packets      int
	PacketsBytes int64
}

// NewUDP returns a receiver for a clip with the given total frames.
func NewUDP(clock Clock, clipFrames int) *UDP {
	return &UDP{
		clock:         clock,
		tr:            &trace.Trace{ClipFrames: clipFrames},
		frameInterval: video.FrameInterval(),
	}
}

// SliceTolerance is the concealment model for small-message servers
// (VideoCharger-style): the decoder conceals roughly one lost slice
// message in four and still emits the frame (with visible damage the
// quality model penalizes); more loss than that, or losing the first
// fragment (picture header — checked separately), drops the frame.
func SliceTolerance(frags int) int {
	t := (frags + 1) / 3
	if t < 1 {
		t = 1
	}
	return t
}

// Trace returns the accumulated frame trace.
func (c *UDP) Trace() *trace.Trace { return c.tr }

// Handle consumes one arriving packet and releases it: frame
// accounting copies everything it needs.
func (c *UDP) Handle(p *packet.Packet) {
	now := c.clock.Now()
	c.CountArrival(now, p.Size)
	if c.Tap != nil {
		c.Tap.Emit(ptrace.Event{
			Kind: ptrace.Deliver, Hop: c.Hop, Flow: p.Flow, PktID: p.ID,
			Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: int32(p.FrameSeq),
			Delay: now - p.SentAt,
		})
	}
	seq, fragIndex, fragCount := p.FrameSeq, p.FragIndex, p.FragCount
	c.Pool.Put(p)
	if seq < 0 {
		return
	}
	if seq >= len(c.slots) {
		// A source the clip length did not anticipate (a scenario file
		// can wire any server to any client).
		c.slots = append(c.slots, make([]int32, seq+1-len(c.slots))...)
	}
	if c.slots[seq] == 0 {
		c.slots[seq] = c.slab.take(int32(fragCount))
	}
	st := c.slab.at(c.slots[seq])
	if st.got&fragDone != 0 {
		return
	}
	st.got++
	st.last = now
	if fragIndex == 0 {
		st.got |= fragFirst
	}
	if st.received() >= st.total {
		// Fully reassembled: the arrival time is final.
		st.got |= fragDone
	}
}

// CountArrival counts a packet of size bytes that reached the receiver
// at instant at without being carried there: a best-effort packet a
// lazy port computed (link.Sink). It moves the counters, and sets the
// presentation base on the first arrival, as Handle does for a carried
// packet. So every such packet that arrives before the first Handle call
// must be counted before that call.
func (c *UDP) CountArrival(at units.Time, size int) {
	if !c.started {
		c.started = true
		c.base = at
		c.Scratch.lendUDP(c)
	}
	c.Packets++
	c.PacketsBytes += int64(size)
}

// Finish resolves partially received frames through the Tolerance
// model and returns the trace: one record per complete or concealed
// frame, in frame order. Calling it again returns the same trace.
func (c *UDP) Finish() *trace.Trace {
	n := 0
	for _, slot := range c.slots {
		if slot == 0 {
			continue
		}
		st := c.slab.at(slot)
		if st.got&fragDone == 0 && c.Tolerance != nil && st.got&fragFirst != 0 &&
			int(st.total-st.received()) <= c.Tolerance(int(st.total)) {
			st.got |= fragDone
		}
		if st.got&fragDone != 0 {
			n++
		}
	}
	if cap(c.tr.Records) < n {
		c.Scratch.lendRecords(c.tr, n)
	}
	recs := c.tr.Records[:0]
	for seq, slot := range c.slots {
		if slot == 0 {
			continue
		}
		if st := c.slab.at(slot); st.got&fragDone != 0 {
			recs = append(recs, trace.FrameRecord{
				Seq:          seq,
				Arrival:      st.last,
				Presentation: c.base + units.Time(seq)*c.frameInterval,
				Frags:        int(st.total),
				LostFrags:    int(st.total - st.received()),
			})
		}
	}
	c.tr.Records = recs
	return c.tr
}

// MPEGDecoder is DecodeMPEG with its scratch kept between calls: the
// per-frame record index and the output trace are reused, so a worker
// that evaluates flow after flow allocates them once. The zero value
// is ready to use.
type MPEGDecoder struct {
	index []int32 // index[seq] is 1 + the record's position in the input, 0 if absent
	out   trace.Trace
}

// Decode filters a received-frame trace through MPEG-1 reference
// dependencies: an I frame decodes on its own; a P frame needs the
// previous anchor (I or P) decoded; a B frame needs the previous
// anchor too (the forward anchor is transmitted before the B pictures
// in coded order, so its availability is implied). A policed I frame
// therefore wipes out its GoP's remainder — the loss amplification a
// real decoder exhibits, and part of why small frame-loss differences
// move video quality so much. Records whose Seq lies outside the
// encoding are ignored. The returned trace is valid until the next
// call.
func (d *MPEGDecoder) Decode(tr *trace.Trace, enc *video.Encoding) *trace.Trace {
	n := len(enc.Frames)
	d.index = slices.Grow(d.index[:0], n)[:n]
	index := d.index
	clear(index)
	for i, r := range tr.Records {
		if r.Seq >= 0 && r.Seq < n {
			index[r.Seq] = int32(i + 1)
		}
	}
	out := &d.out
	out.ClipFrames = tr.ClipFrames
	// Decoding only removes frames, so the input length bounds it.
	out.Records = slices.Grow(out.Records[:0], len(tr.Records))
	anchorOK := false
	for i, at := range index {
		ok := at != 0
		switch enc.Frames[i].Type {
		case video.IFrame:
			anchorOK = ok
		case video.PFrame:
			ok = ok && anchorOK
			anchorOK = ok
		default: // B frame
			ok = ok && anchorOK
		}
		if ok {
			out.Add(tr.Records[at-1])
		}
	}
	return out
}

// DecodeMPEG is the one-shot form of MPEGDecoder.Decode.
func DecodeMPEG(tr *trace.Trace, enc *video.Encoding) *trace.Trace {
	return new(MPEGDecoder).Decode(tr, enc)
}

// Stream is a byte-stream receiver for TCP delivery: the server
// writes length-prefixed frame messages; the in-order byte stream is
// parsed back into frames. Frames are never lost on the wire — they
// are either delivered (possibly late) or were thinned by the server.
type Stream struct {
	clock Clock
	tr    *trace.Trace

	base    units.Time
	started bool

	frameInterval units.Time

	// Scratch, when set, lends the trace records; nil grows them from
	// the heap.
	Scratch *Scratch

	Bytes int64
}

// NewStream returns a TCP-side frame recorder.
func NewStream(clock Clock, clipFrames int) *Stream {
	return &Stream{
		clock:         clock,
		tr:            &trace.Trace{ClipFrames: clipFrames},
		frameInterval: video.FrameInterval(),
	}
}

// Trace returns the accumulated frame trace.
func (c *Stream) Trace() *trace.Trace { return c.tr }

// FrameHeaderSize is the length-prefix header of each frame message
// on the TCP stream: 4 bytes frame seq + 4 bytes body length.
const FrameHeaderSize = 8

// message is one sender-side framing record.
type message struct {
	seq int
	len int64
}

// StreamAssembler tracks the sender-side message framing so the
// receiver can translate "n more in-order bytes arrived" into
// completed frames. It is shared between the tcpsim sender and the
// Stream receiver; payload contents never exist, only lengths.
type StreamAssembler struct {
	// Scratch, when set, lends the message list; nil grows it from the
	// heap.
	Scratch *Scratch

	msgs      []message
	cur       int
	curLeft   int64
	completed []int // consume's result buffer
}

// RegisterMessage appends a frame message of length bytes (including
// header) for frame seq.
func (a *StreamAssembler) RegisterMessage(seq int, length int64) {
	if a.msgs == nil {
		a.Scratch.lendMessages(a)
	}
	a.msgs = append(a.msgs, message{seq: seq, len: length})
}

// consume advances the assembler by n in-order delivered bytes and
// returns the frame sequence numbers completed by those bytes. The
// slice is the assembler's own buffer, valid until the next call.
func (a *StreamAssembler) consume(n int64) []int {
	completed := a.completed[:0]
	for n > 0 && a.cur < len(a.msgs) {
		if a.curLeft == 0 {
			a.curLeft = a.msgs[a.cur].len
		}
		take := n
		if take > a.curLeft {
			take = a.curLeft
		}
		a.curLeft -= take
		n -= take
		if a.curLeft == 0 {
			completed = append(completed, a.msgs[a.cur].seq)
			a.cur++
		}
	}
	a.completed = completed
	return completed
}

// OnDelivered is the callback the tcpsim receiver invokes as the
// cumulative in-order byte count grows.
func (c *Stream) OnDelivered(asm *StreamAssembler, newBytes int64) {
	now := c.clock.Now()
	if !c.started {
		c.started = true
		c.base = now
		c.Scratch.lendRecords(c.tr, 0)
	}
	c.Bytes += newBytes
	for _, seq := range asm.consume(newBytes) {
		c.tr.Add(trace.FrameRecord{
			Seq:          seq,
			Arrival:      now,
			Presentation: c.base + units.Time(int64(seq))*c.frameInterval,
			Frags:        1,
		})
	}
}

// Finish sorts the trace and returns it.
func (c *Stream) Finish() *trace.Trace {
	c.tr.SortBySeq()
	return c.tr
}
