package tokenbucket

import (
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/sim"
	"repro/internal/units"
)

// Clock exposes the simulated time to conditioning elements. Both
// *sim.Simulator and test fakes satisfy it.
type Clock interface {
	Now() units.Time
}

// Profile is the configuration a class of policers shares: the paper's
// EF service polices every flow of a class against one (r, b), with
// credit kept per flow. A profile holds everything but that credit and
// the per-flow counters, so a fleet of N policers costs N cache lines
// plus one profile per class instead of N copies of the configuration.
type Profile struct {
	clock Clock
	bucketConfig
	mark packet.DSCP
	next packet.Handler
	drop packet.Handler // optional observer for dropped packets

	// Pool, when set, receives dropped packets — the policer owns its
	// drops. The drop observer is called first and only borrows the
	// packet (copy-on-retain).
	Pool *packet.Pool

	// Tap, when set, receives a verdict event per packet, under the
	// policer's own Hop.
	Tap ptrace.Tap
}

// Init (re)initializes pr in place as the profile (rate, depth) that
// marks conformant traffic with mark and forwards it to next.
func (pr *Profile) Init(clock Clock, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, next packet.Handler) {
	*pr = Profile{clock: clock, mark: mark, next: next}
	pr.set(rate, depth)
}

// SetNext redirects conformant traffic to h for every policer on pr
// (topology-builder wiring; not for use once packets are flowing).
func (pr *Profile) SetNext(h packet.Handler) { pr.next = h }

// Policer enforces a token-bucket profile the way the paper's router 1
// and the QBone's Cisco CAR did for the EF service: conformant packets
// are re-marked with the EF code point and forwarded; non-conformant
// packets are dropped ("hard" policing, §3.2.1.2).
//
// A Policer is the per-flow part — the profile pointer, the bucket's
// credit, the hop and the counters, one 64-byte cache line on amd64 —
// and the profile it points to may be shared by every policer of a
// class, so a conformance check over a fleet of contiguous policers
// touches the flow's own line and a profile that stays in cache.
type Policer struct {
	*Profile
	credit

	Passed       int
	Dropped      int
	PassedBytes  int64
	DroppedBytes int64

	Hop ptrace.HopID
}

// NewPolicer returns a dropping policer with the given profile that
// marks conformant traffic with mark and forwards it to next. The
// policer and its own profile are one allocation.
func NewPolicer(clock Clock, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, next packet.Handler) *Policer {
	own := new(struct {
		pol  Policer
		prof Profile
	})
	own.prof.Init(clock, rate, depth, mark, next)
	own.pol.InitShared(&own.prof)
	return &own.pol
}

// Init (re)initializes p in place with a profile of its own —
// NewPolicer over caller-owned storage. Policers that share a profile
// use InitShared.
func (p *Policer) Init(clock Clock, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, next packet.Handler) {
	pr := new(Profile)
	pr.Init(clock, rate, depth, mark, next)
	p.InitShared(pr)
}

// InitShared (re)initializes p in place as a full bucket policed by
// pr, which other policers may share — for fleets that lay a class's
// policers out as one contiguous slice under one profile.
func (p *Policer) InitShared(pr *Profile) {
	*p = Policer{Profile: pr}
	pr.fill(&p.credit)
}

// OnDrop registers an observer that receives each dropped packet — of
// every policer that shares p's profile.
func (p *Policer) OnDrop(h packet.Handler) { p.drop = h }

// Handle applies the profile to pkt.
func (p *Policer) Handle(pkt *packet.Packet) {
	now := p.clock.Now()
	if p.conform(&p.credit, now, pkt.Size) {
		pkt.DSCP = p.mark
		p.Passed++
		p.PassedBytes += int64(pkt.Size)
		if p.Tap != nil {
			p.Tap.Emit(p.verdict(ptrace.PolicerPass, pkt))
		}
		p.next.Handle(pkt)
		return
	}
	p.Dropped++
	p.DroppedBytes += int64(pkt.Size)
	if p.Tap != nil {
		p.Tap.Emit(p.verdict(ptrace.PolicerDrop, pkt))
	}
	if p.drop != nil {
		p.drop.Handle(pkt) // observer borrows; must not retain or release
	}
	p.Pool.Put(pkt)
}

// verdict copies the trace fields out of pkt before ownership moves.
func (p *Policer) verdict(k ptrace.Kind, pkt *packet.Packet) ptrace.Event {
	return ptrace.Event{
		Kind: k, Hop: p.Hop, Flow: pkt.Flow, PktID: pkt.ID,
		Size: int32(pkt.Size), DSCP: pkt.DSCP, FrameSeq: int32(pkt.FrameSeq),
	}
}

// LossFraction reports the fraction of packets dropped so far.
func (p *Policer) LossFraction() float64 {
	total := p.Passed + p.Dropped
	if total == 0 {
		return 0
	}
	return float64(p.Dropped) / float64(total)
}

// Shaper is a token bucket that delays non-conformant packets until
// they conform instead of dropping them (footnote 5 in the paper). It
// keeps a FIFO of waiting packets and releases them at their earliest
// conformance times via the simulator. Packets that can never conform
// (larger than the depth) are dropped; a bounded queue emulates the
// finite buffering of the Linux shaping router.
type Shaper struct {
	sim    *sim.Simulator
	bucket *bucket
	mark   packet.DSCP
	next   packet.Handler

	// Pool, when set, receives packets the shaper drops (oversized or
	// queue overflow).
	Pool *packet.Pool

	// Tap, when set, receives release/drop events; released packets
	// that had to wait in the shaper queue carry Flag=1.
	Tap ptrace.Tap
	Hop ptrace.HopID

	queue    packet.Ring
	maxQueue int
	busy     bool

	Passed  int
	Delayed int
	Dropped int
}

// shaperTimer is the pointer-conversion Timer of a Shaper.
type shaperTimer Shaper

// Fire releases the head packet at its conformance time.
func (sh *shaperTimer) Fire(units.Time) { (*Shaper)(sh).releaseHead() }

// NewShaper returns a shaper with the given profile. maxQueue bounds
// the number of waiting packets; 0 means a generous default (1024).
func NewShaper(s *sim.Simulator, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, next packet.Handler) *Shaper {
	return &Shaper{sim: s, bucket: newBucket(rate, depth), mark: mark, next: next, maxQueue: 1024}
}

// SetNext redirects the shaper's output to h (topology-builder
// wiring; not for use once packets are flowing).
func (sh *Shaper) SetNext(h packet.Handler) { sh.next = h }

// SetPool makes pl the shaper's packet arena: the release target of its
// drops and the lender of its waiting room's storage.
func (sh *Shaper) SetPool(pl *packet.Pool) {
	sh.Pool = pl
	pl.Lend(&sh.queue)
}

// SetQueueLimit bounds the shaper's waiting room.
func (sh *Shaper) SetQueueLimit(n int) {
	if n > 0 {
		sh.maxQueue = n
	}
}

// Handle shapes pkt.
func (sh *Shaper) Handle(pkt *packet.Packet) {
	now := sh.sim.Now()
	if !sh.busy && sh.queue.Len() == 0 && sh.bucket.conform(now, pkt.Size) {
		pkt.DSCP = sh.mark
		sh.Passed++
		if sh.Tap != nil {
			sh.Tap.Emit(sh.event(ptrace.ShaperRelease, pkt, 0))
		}
		sh.next.Handle(pkt)
		return
	}
	if int64(pkt.Size) > int64(sh.bucket.depth) {
		sh.Dropped++ // can never conform
		if sh.Tap != nil {
			sh.Tap.Emit(sh.event(ptrace.ShaperDrop, pkt, 0))
		}
		sh.Pool.Put(pkt)
		return
	}
	if sh.queue.Len() >= sh.maxQueue {
		sh.Dropped++
		if sh.Tap != nil {
			sh.Tap.Emit(sh.event(ptrace.ShaperDrop, pkt, 0))
		}
		sh.Pool.Put(pkt)
		return
	}
	sh.queue.Push(pkt)
	sh.Delayed++
	if !sh.busy {
		sh.scheduleNext()
	}
}

func (sh *Shaper) scheduleNext() {
	head := sh.queue.Peek()
	if head == nil {
		sh.busy = false
		return
	}
	t, ok := sh.bucket.nextConformTime(sh.sim.Now(), head.Size)
	if !ok {
		// Unreachable given the Handle guard, but keep the queue moving.
		sh.queue.Pop()
		sh.Dropped++
		if sh.Tap != nil {
			sh.Tap.Emit(sh.event(ptrace.ShaperDrop, head, 0))
		}
		sh.Pool.Put(head)
		sh.scheduleNext()
		return
	}
	sh.busy = true
	sh.sim.AtTimer(t, (*shaperTimer)(sh))
}

// releaseHead forwards the head packet once it conforms.
func (sh *Shaper) releaseHead() {
	p := sh.queue.Pop()
	if p == nil {
		sh.busy = false
		return
	}
	sh.bucket.debit(sh.sim.Now(), p.Size)
	p.DSCP = sh.mark
	sh.Passed++
	if sh.Tap != nil {
		sh.Tap.Emit(sh.event(ptrace.ShaperRelease, p, 1))
	}
	sh.next.Handle(p)
	sh.scheduleNext()
}

// event copies the trace fields out of p before ownership moves.
func (sh *Shaper) event(k ptrace.Kind, p *packet.Packet, flag uint8) ptrace.Event {
	return ptrace.Event{
		Kind: k, Hop: sh.Hop, Flow: p.Flow, PktID: p.ID,
		Size: int32(p.Size), DSCP: p.DSCP, FrameSeq: int32(p.FrameSeq),
		QLen: int32(sh.queue.Len()), Flag: flag,
	}
}
