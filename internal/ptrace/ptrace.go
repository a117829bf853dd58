// Package ptrace is the packet-level tracing subsystem: a set of tap
// points threaded through the datapath (links, queues, policers,
// shapers, markers, loss elements, clients, the TCP endpoints) that
// emit compact value-type Event records into a bounded per-run
// Recorder.
//
// # Design constraints
//
// Tracing must cost nothing when disabled: every hook site is a
// nil-check on a Tap field, and the Event value is only constructed
// inside the guarded branch, so the per-packet hot paths keep their
// 0 allocs/op budget (see TestLinkHotPathAllocationBudget). When a
// Recorder is attached, Emit writes into storage allocated at its
// first write — the steady state records events without allocating
// either.
//
// Events never retain a *packet.Packet: hook sites copy the handful
// of fields they need before ownership moves on, so tracing composes
// with packet.Pool recycling without extending any packet's lifetime.
//
// # Bounded capture
//
// A Recorder that keeps its capture in RAM holds at most
// Config.Capacity events. Three capture shapes compose:
//
//   - plain ring (the default): the last Capacity events survive;
//   - head/tail: Config.Head pins the first Head events of the run
//     (connection setup, the first policer verdicts) and the ring
//     keeps the tail;
//   - sampling: Config.Sample keeps one event in N once the head is
//     full, stretching the ring's time coverage N-fold.
//
// A spilling Recorder (SpillTo) keeps nothing in RAM: the spill stream
// is the capture. Every event that survives the filters, the head and
// the sampling stride is encoded once, straight to the stream, unbounded
// by Capacity; the ring is never allocated and the head is a count.
// When DigestWrites asks for it, the writer also folds each event it
// encodes into the capture's Summary, so a run's .digest never needs
// its own trace read back.
//
// Total emitted events are always counted (Seen), so an analyzer can
// report how much of the run the retained window covers.
package ptrace

import (
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/units"
)

// Kind identifies the datapath action an Event records.
type Kind uint8

// Tap-point kinds. The verdict-style kinds reuse the policer family:
// an AF marker "demotes" (yellow/red re-mark) where a policer drops.
const (
	// LinkEnqueue: a packet was admitted to a link port's scheduler.
	LinkEnqueue Kind = iota
	// QueueDrop: the port's scheduler rejected the packet (tail drop,
	// class limit, or an AQM decision — see REDEarly).
	QueueDrop
	// REDEarly annotates a QueueDrop that was a RED/RIO probabilistic
	// or threshold decision rather than a full buffer. The owning
	// link still emits the QueueDrop; REDEarly is detail, not a
	// second drop.
	REDEarly
	// LinkTx: serialization finished; Delay holds the packet's
	// queueing+serialization time at this hop.
	LinkTx
	// LinkDeliver: propagation finished, packet handed to the next hop.
	LinkDeliver
	// PolicerPass: a token-bucket verdict let the packet through
	// conformant (policer conform, marker green).
	PolicerPass
	// PolicerDemote: a three-color marker re-marked the packet to a
	// worse drop precedence (yellow/red); Flag carries the Color.
	PolicerDemote
	// PolicerDrop: a hard policer dropped the packet out of profile.
	PolicerDrop
	// ShaperRelease: a shaper forwarded a packet at its conformance
	// time (Flag is 1 when the packet had to wait in the shaper queue).
	ShaperRelease
	// ShaperDrop: the shaper dropped an oversized or overflow packet.
	ShaperDrop
	// Loss: a random-loss element dropped the packet.
	Loss
	// Deliver: the client consumed the packet; Delay holds the one-way
	// delay since SentAt.
	Deliver
	// TCPSend: the TCP sender emitted a segment (Flag is 1 for a
	// retransmission); QLen holds the flight in segments.
	TCPSend
	// TCPAck: the TCP sender processed a cumulative ACK (Flag is 1 for
	// a duplicate); Delay holds the current smoothed RTT.
	TCPAck
	// TCPRTO: the sender's retransmission timer expired; Delay holds
	// the timeout that expired.
	TCPRTO

	numKinds
)

var kindNames = [numKinds]string{
	"enqueue", "queue-drop", "red-early", "tx", "deliver",
	"policer-pass", "policer-demote", "policer-drop",
	"shaper-release", "shaper-drop", "loss", "client-deliver",
	"tcp-send", "tcp-ack", "tcp-rto",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsDrop reports whether the event terminates the packet. REDEarly is
// excluded: it annotates a QueueDrop the owning link also emits, so
// counting both would double-book the drop.
func (k Kind) IsDrop() bool {
	switch k {
	case QueueDrop, PolicerDrop, ShaperDrop, Loss:
		return true
	}
	return false
}

// HopID is an interned hop (element) name — a small integer so Event
// stays a compact value type. The Recorder owns the name table.
type HopID uint16

// Event is one datapath observation. All fields are plain values;
// nothing points back into the simulation.
type Event struct {
	T     units.Time // stamped by the Recorder at Emit
	Delay units.Time // kind-specific latency annotation (see Kind docs)
	PktID uint64
	Flow  packet.FlowID
	Size  int32
	// QLen is the hop's queue occupancy after the action, where the
	// hop has a queue (links, shapers, TCP flight in segments).
	QLen     int32
	FrameSeq int32 // video frame the packet fragments, -1 otherwise
	Hop      HopID
	Kind     Kind
	DSCP     packet.DSCP
	// Flag is a kind-specific annotation: retransmission (TCPSend),
	// duplicate (TCPAck), waited-in-queue (ShaperRelease), the
	// packet.Color (PolicerDemote).
	Flag uint8
}

// Tap consumes events. Datapath components hold a nil Tap by default;
// a hook site fires only when one is attached, so disabled tracing is
// a single pointer comparison per tap point.
type Tap interface {
	Emit(e Event)
}

// Clock exposes simulated time; *sim.Simulator satisfies it. The
// Recorder stamps Event.T itself so hook sites that have no clock of
// their own (queue AQMs) can still emit.
type Clock interface {
	Now() units.Time
}

// Config bounds a Recorder's capture. The zero value means: 64 Ki
// events of plain ring, no head pinning, no sampling.
type Config struct {
	// Capacity is the maximum number of retained events (default 65536).
	Capacity int
	// Head pins the first Head events of the run; the remaining
	// capacity rings over the tail. Clamped to Capacity.
	Head int
	// Sample keeps one event in Sample once the head is full; <= 1
	// keeps every event. Sampling is per kind (every kind keeps its
	// own 1-in-Sample stride), so a patterned event stream — a packet
	// always emitting the same fixed sequence of kinds — cannot land
	// one kind on a stride phase that discards it entirely.
	Sample int
	// Kinds restricts capture to the masked kinds (build the mask
	// with KindMask); 0 captures everything. Filtering the bulk
	// enqueue/tx/deliver kinds stretches a bounded ring across a whole
	// run's verdicts and drops — the mode frame-loss attribution
	// wants.
	Kinds uint32
	// Flows restricts capture to the listed flow ids; empty captures
	// every flow. Filtering to the video flow keeps a run-length
	// capture from being swamped by cross-traffic churn (best-effort
	// queue drops outnumber video verdicts by orders of magnitude on
	// a loaded path).
	Flows []packet.FlowID
}

// KindMask builds a Config.Kinds mask.
func KindMask(ks ...Kind) uint32 {
	var m uint32
	for _, k := range ks {
		m |= 1 << k
	}
	return m
}

// VerdictKinds is the compact diagnosis mask: conditioner verdicts,
// every drop kind, client deliveries, and the TCP endpoint events —
// everything dstrace needs to attribute loss, without the bulk
// per-hop forwarding events.
func VerdictKinds() uint32 {
	return KindMask(QueueDrop, REDEarly, PolicerPass, PolicerDemote, PolicerDrop,
		ShaperRelease, ShaperDrop, Loss, Deliver, TCPSend, TCPAck, TCPRTO)
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 65536
	}
	if c.Head < 0 {
		c.Head = 0
	}
	if c.Head > c.Capacity {
		c.Head = c.Capacity
	}
	if c.Sample < 1 {
		c.Sample = 1
	}
	return c
}

// Recorder is a bounded, allocation-free event sink for one
// simulation run. It is not goroutine-safe for the same reason a
// packet.Pool is not: each simulation owns its recorder, and the
// runner never shares a simulation across workers.
type Recorder struct {
	clock Clock
	cfg   Config

	pinned      int     // head-phase events taken, at most cfg.Head
	head        []Event // the pinned events, in RAM mode
	ring        []Event // circular tail over the rest of the capacity
	start       int
	count       int
	seen        uint64
	overwritten uint64
	// kindSeen counts filter-surviving events per kind, the stride
	// basis for per-kind sampling.
	kindSeen [numKinds]uint64

	hops    []string
	hopByID map[string]HopID

	// spill, when set, takes every captured event in the binary v2
	// encoding instead of the head and the ring.
	spill *v2Writer
	// fold, when set, digests every event the recorder encodes.
	fold *Digester
}

// NewRecorder returns a recorder with cfg's bounds. The head and the
// ring are allocated at their first write, so a recorder that spills
// never allocates them. Attach a clock with SetClock before the run
// starts.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), hopByID: make(map[string]HopID)}
}

// SetClock attaches the time source that stamps Event.T. The topology
// builder calls this with the run's simulator.
func (r *Recorder) SetClock(c Clock) { r.clock = c }

// Hop interns a hop name, returning its stable id. Called at wiring
// time, never on the per-packet path.
func (r *Recorder) Hop(name string) HopID {
	if id, ok := r.hopByID[name]; ok {
		return id
	}
	id := HopID(len(r.hops))
	r.hops = append(r.hops, name)
	r.hopByID[name] = id
	return id
}

// HopName resolves an interned id; unknown ids get a numeric name.
func (r *Recorder) HopName(id HopID) string { return hopName(r.hops, id) }

// Emit records e, stamping its time. Steady-state cost is a bounds
// check and a 48-byte copy into the ring, or one packed record on the
// spill stream — no allocation.
func (r *Recorder) Emit(e Event) {
	r.seen++
	if r.cfg.Kinds != 0 && r.cfg.Kinds&(1<<e.Kind) == 0 {
		return
	}
	if len(r.cfg.Flows) > 0 {
		ok := false
		for _, f := range r.cfg.Flows {
			if e.Flow == f {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}
	if r.clock != nil {
		e.T = r.clock.Now()
	}
	if r.pinned < r.cfg.Head {
		r.pinned++
		if r.spill != nil {
			r.spill.add(e)
			return
		}
		if r.head == nil {
			r.head = make([]Event, 0, r.cfg.Head)
		}
		r.head = append(r.head, e)
		return
	}
	if e.Kind < numKinds { // out-of-range kinds fall through unsampled
		r.kindSeen[e.Kind]++
		if r.cfg.Sample > 1 && r.kindSeen[e.Kind]%uint64(r.cfg.Sample) != 0 {
			return
		}
	}
	// The spill stream gets every event the ring would be offered,
	// including the ones a full ring would overwrite, so a spilled
	// capture is complete past Capacity.
	if r.spill != nil {
		r.spill.add(e)
		return
	}
	if r.ring == nil {
		n := r.cfg.Capacity - r.cfg.Head
		if n == 0 {
			return // head-only capture
		}
		r.ring = make([]Event, n)
	}
	if r.count < len(r.ring) {
		r.ring[(r.start+r.count)%len(r.ring)] = e
		r.count++
		return
	}
	r.ring[r.start] = e
	r.start = (r.start + 1) % len(r.ring)
	r.overwritten++
}

// Seen reports the total events emitted, retained or not.
func (r *Recorder) Seen() uint64 { return r.seen }

// Retained reports how many events are currently held in RAM; a
// spilling recorder holds none.
func (r *Recorder) Retained() int { return len(r.head) + r.count }

// Overwritten reports ring events displaced by newer ones.
func (r *Recorder) Overwritten() uint64 { return r.overwritten }

// Events returns the retained events in emission (and therefore time)
// order: the pinned head, then the surviving tail window. A spilling
// recorder retains none; its capture is the spill stream.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.Retained())
	out = append(out, r.head...)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.start+i)%len(r.ring)])
	}
	return out
}

// Data snapshots the recorder into the exportable form.
func (r *Recorder) Data() *Data {
	return &Data{Hops: append([]string(nil), r.hops...), Seen: r.seen, Events: r.Events()}
}

// WriteTo saves the retained capture in the binary v2 encoding: the
// ring save of a recorder that did not spill.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	d := r.Data()
	d.fold = r.fold
	return d.WriteTo(w)
}

// DigestWrites makes the recorder fold every event it encodes, to its
// spill stream or through WriteTo, into a streaming Digester at the
// moment it is encoded: the capture's Summary then comes from the one
// pass that writes it, never from reading the trace back. Call it
// before SpillTo and before the run starts, and read the digest with
// Summary once FinishSpill or WriteTo has sealed the capture.
func (r *Recorder) DigestWrites() { r.fold = NewDigester(0) }

// Summary seals the digest of everything the recorder has encoded. It
// equals AnalyzeStream(trace, 0) over the sealed trace, since it folds
// the same events in the same order against the hop table and seen
// count the trailer carries. Nil unless DigestWrites was called.
func (r *Recorder) Summary() *Summary {
	if r.fold == nil {
		return nil
	}
	return r.fold.Summarize(r.hops, r.seen)
}

// SpillTo makes w the capture: every subsequently captured event is
// encoded to it in the binary v2 encoding as it is emitted, unbounded
// by Config.Capacity, and nothing is kept in RAM (Events and Retained
// report none). The spill honors the Kind and Flow filters and the
// per-kind sampling stride (head-phase events are always written), so
// -trace-sample still bounds a fleet-scale spill file's size. Call
// before the run starts, and seal the stream with FinishSpill after it
// ends; w should be buffered — add writes it one small block at a
// time.
func (r *Recorder) SpillTo(w io.Writer) {
	r.spill = newV2Writer(w)
	r.spill.fold = r.fold
}

// Spilled reports the events written to the spill stream so far (0
// when spilling is off).
func (r *Recorder) Spilled() uint64 {
	if r.spill == nil {
		return 0
	}
	return r.spill.total
}

// FinishSpill seals the spill stream's v2 trailer — hop table, seen
// count, event total — and detaches it, returning the first error the
// stream hit. Without the trailer the spill file is a truncated trace
// by construction, so forgetting this shows up loudly at read time.
// A recorder that never spilled, or already finished, returns nil.
func (r *Recorder) FinishSpill() error {
	if r.spill == nil {
		return nil
	}
	_, err := r.spill.finish(r.hops, r.seen)
	r.spill = nil
	return err
}
