package topology

import (
	"fmt"

	"repro/internal/flowbatch"
	"repro/internal/link"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokenbucket"
	"repro/internal/traffic"
	"repro/internal/units"
)

// SchedulerSpec builds a scheduler for a link at Build time. Specs
// that need randomness (RIO) fork the simulator's RNG when
// invoked, so the fork order is the declaration order of the links
// that use them — which keeps builder-made networks bit-identical to
// hand-wired ones.
type SchedulerSpec func(s *sim.Simulator) queue.Scheduler

// EFPriority is a strict-priority scheduler spec with EF high.
func EFPriority(highLimit, lowLimit int) SchedulerSpec {
	return func(*sim.Simulator) queue.Scheduler { return queue.NewEFPriority(highLimit, lowLimit) }
}

// PlainFIFO is a single drop-tail queue spec.
func PlainFIFO(limit int) SchedulerSpec {
	return func(*sim.Simulator) queue.Scheduler { return queue.NewSingleFIFO(limit) }
}

// drrSched is a deficit-round-robin scheduler spec.
func drrSched(classes ...queue.ClassSpec) SchedulerSpec {
	return func(*sim.Simulator) queue.Scheduler { return queue.NewDRR(classes...) }
}

// wfqSched is a weighted-fair-queueing scheduler spec.
func wfqSched(classes ...queue.ClassSpec) SchedulerSpec {
	return func(*sim.Simulator) queue.Scheduler { return queue.NewWFQ(classes...) }
}

// afRIO is an AF-class RIO-over-best-effort scheduler spec; it forks
// the simulator RNG for the RED drop tests.
func afRIO(in, out queue.REDConfig, beLimit int) SchedulerSpec {
	return func(s *sim.Simulator) queue.Scheduler {
		return queue.NewAFScheduler(in, out, s.RNG().Fork().Float64, beLimit)
	}
}

// LinkSpec declares a serializing link.
type LinkSpec struct {
	Rate  units.BitRate
	Delay units.Time
	Sched SchedulerSpec // nil = unbounded FIFO
	To    string
}

// SourceKind selects a background-traffic generator model.
type SourceKind int

// Source kinds.
const (
	PoissonSource SourceKind = iota
	CBRSource
)

// SourceSpec declares a background traffic source.
type SourceSpec struct {
	Kind SourceKind
	Rate units.BitRate // mean rate
	Size int           // packet size; 0 = Ethernet MTU
	Flow packet.FlowID
	DSCP packet.DSCP

	// Batch > 1 fans the source out as Batch virtual flows (ids
	// Flow..Flow+Batch-1) driven by one timer — see internal/flowbatch —
	// packet-for-packet identical to declaring Batch separate CBR
	// sources in flow-id order. Only CBR supports batching: declaring
	// Batch on a Poisson source is a Build error, because per-flow RNG
	// forks cannot be reproduced exactly by a shared stream. Rate and
	// Size are per virtual flow.
	Batch int

	To string
}

type elemKind int

const (
	kindHandler elemKind = iota
	kindLink
	kindJitter
	kindLoss
	kindRouter
	kindPolicer
	kindShaper
	kindAFMarker
	kindDelayTap
	kindSource
)

type ruleDecl struct {
	name  string
	match node.Classifier
	to    string
}

type elem struct {
	kind elemKind
	name string
	to   string

	// declaration payloads (per kind)
	linkSpec   LinkSpec
	maxJitter  units.Time
	lossP      float64
	rate       units.BitRate
	depth      units.ByteSize
	mark       packet.DSCP
	queueLimit int
	cbs, ebs   units.ByteSize
	match      func(*packet.Packet) bool
	rules      []ruleDecl
	srcSpec    SourceSpec

	// built objects (exactly one per kind is non-nil after Build)
	handler packet.Handler
	link    *link.Link
	jitter  *link.Jitter
	loss    *link.Loss
	router  *node.Router
	policer *tokenbucket.Policer
	shaper  *tokenbucket.Shaper
	marker  *tokenbucket.AFMarker
	tap     *stats.DelayCollector
	poisson *traffic.Poisson
	cbr     *traffic.CBR
	bcbr    *flowbatch.BatchedCBR
}

// entry returns the element's packet entry point.
func (e *elem) entry() packet.Handler {
	switch e.kind {
	case kindHandler:
		return e.handler
	case kindLink:
		return e.link
	case kindJitter:
		return e.jitter
	case kindLoss:
		return e.loss
	case kindRouter:
		return e.router
	case kindPolicer:
		return e.policer
	case kindShaper:
		return e.shaper
	case kindAFMarker:
		return e.marker
	case kindDelayTap:
		return e.tap
	}
	return nil
}

// Builder assembles a network graph declaratively: declare named
// nodes, links, conditioning elements, traffic sources and taps in any
// dataflow order (forward references are fine), then Build() wires the
// sim/link/node objects and hands back a Network of handles.
//
// Determinism contract: Build instantiates elements in declaration
// order (this fixes the RNG fork order of random schedulers), then
// resolves references, then starts traffic sources in declaration
// order (this fixes both their RNG fork order and the sequence numbers
// of their initial events). Two builders with the same declarations
// therefore produce bit-identical simulations — and a builder that
// declares elements in the same order a hand-wired constructor created
// them reproduces that constructor exactly.
type Builder struct {
	sim    *sim.Simulator
	pool   *packet.Pool
	trace  *ptrace.Recorder
	elems  []*elem
	byName map[string]*elem
	errs   []error
}

// NewBuilder returns a builder for a simulation seeded with seed, built
// on s and pool. The experiment runner lends each worker one simulator
// and one packet arena for job after job: s is Reset to seed here, so
// the build is bit-identical to one on New(seed), and the elements Build
// makes borrow their ring storage from pool. Neither may belong to
// another live simulation. A nil s builds on a new simulator and a nil
// pool on a new arena. The simulator's calendar width is
// density-adaptive.
func NewBuilder(seed uint64, s *sim.Simulator, pool *packet.Pool) *Builder {
	if s == nil {
		s = sim.New(seed)
	} else {
		s.Reset(seed)
	}
	if pool == nil {
		pool = packet.NewPool()
	}
	return &Builder{sim: s, pool: pool, byName: map[string]*elem{}}
}

// Sim exposes the simulator so endpoints (servers, clients) can be
// constructed against it before Build.
func (b *Builder) Sim() *sim.Simulator { return b.sim }

// Pool exposes the builder's packet arena so endpoints built outside
// the builder (servers, clients, TCP endpoints) can share it.
func (b *Builder) Pool() *packet.Pool { return b.pool }

// UseTrace attaches a packet-trace recorder: Build wires every
// traceable element's Tap to it, with the element's declared name as
// the hop. The recorder's clock is set to the builder's simulator.
// A nil recorder leaves tracing disabled (every Tap stays nil, so the
// datapath keeps its allocation-free disabled path).
func (b *Builder) UseTrace(rec *ptrace.Recorder) {
	b.trace = rec
	if rec != nil {
		rec.SetClock(b.sim)
	}
}

func (b *Builder) add(e *elem) *elem {
	if e.name == "" {
		b.errs = append(b.errs, fmt.Errorf("topology: element with empty name (kind %d)", e.kind))
		return e
	}
	if _, dup := b.byName[e.name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate element %q", e.name))
		return e
	}
	b.elems = append(b.elems, e)
	b.byName[e.name] = e
	return e
}

// Handler registers an externally built endpoint (a client, a TCP
// receiver adapter, a sink) under a name so links and rules can target
// it.
func (b *Builder) Handler(name string, h packet.Handler) {
	if h == nil {
		b.errs = append(b.errs, fmt.Errorf("topology: nil handler %q", name))
		return
	}
	b.add(&elem{kind: kindHandler, name: name, handler: h})
}

// Link declares a serializing link.
func (b *Builder) Link(name string, spec LinkSpec) {
	b.add(&elem{kind: kindLink, name: name, to: spec.To, linkSpec: spec})
}

// frameRelayLink declares a link emulating a Frame Relay PVC (CIR with
// Be=0 behaves as a constant-rate pipe at CIR).
func (b *Builder) frameRelayLink(name string, cfg link.FrameRelayConfig, delay units.Time, sched SchedulerSpec, to string) {
	b.Link(name, LinkSpec{Rate: cfg.CIR, Delay: delay, Sched: sched, To: to})
}

// Jitter declares an order-preserving uniform-jitter element.
func (b *Builder) Jitter(name string, max units.Time, to string) {
	b.add(&elem{kind: kindJitter, name: name, to: to, maxJitter: max})
}

// Loss declares an independent random-loss element.
func (b *Builder) Loss(name string, p float64, to string) {
	b.add(&elem{kind: kindLoss, name: name, to: to, lossP: p})
}

// Router declares a classifying router whose unmatched traffic goes to
// defaultTo. Attach policy with Rule.
func (b *Builder) Router(name, defaultTo string) {
	b.add(&elem{kind: kindRouter, name: name, to: defaultTo})
}

// Rule appends a policy rule to a declared router: packets matching m
// are conditioned by the element named to. Rules apply in declaration
// order, first match wins.
func (b *Builder) Rule(router, rule string, m node.Classifier, to string) {
	e, ok := b.byName[router]
	if !ok || e.kind != kindRouter {
		b.errs = append(b.errs, fmt.Errorf("topology: Rule %q on unknown router %q", rule, router))
		return
	}
	e.rules = append(e.rules, ruleDecl{name: rule, match: m, to: to})
}

// Policer declares a dropping token-bucket policer that re-marks
// conformant traffic with mark.
func (b *Builder) Policer(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, to string) {
	b.add(&elem{kind: kindPolicer, name: name, to: to, rate: rate, depth: depth, mark: mark})
}

// Shaper declares a delaying token-bucket shaper. queueLimit bounds
// its waiting room (0 keeps the shaper's generous default).
func (b *Builder) Shaper(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, queueLimit int, to string) {
	b.add(&elem{kind: kindShaper, name: name, to: to, rate: rate, depth: depth, mark: mark, queueLimit: queueLimit})
}

// afMarkerSR declares an srTCM three-color marker (green/yellow/red →
// AF11/12/13).
func (b *Builder) afMarkerSR(name string, cir units.BitRate, cbs, ebs units.ByteSize, to string) {
	b.add(&elem{kind: kindAFMarker, name: name, to: to, rate: cir, cbs: cbs, ebs: ebs})
}

// delayTap declares a pass-through delay/jitter collector. A nil match
// measures every packet.
func (b *Builder) delayTap(name string, match func(*packet.Packet) bool, to string) {
	b.add(&elem{kind: kindDelayTap, name: name, to: to, match: match})
}

// Source declares a background traffic source. Sources are started by
// Build, in declaration order.
func (b *Builder) Source(name string, spec SourceSpec) {
	b.add(&elem{kind: kindSource, name: name, to: spec.To, srcSpec: spec})
}

// resolve maps a target name to its entry handler.
func (b *Builder) resolve(from, target string) (packet.Handler, error) {
	e, ok := b.byName[target]
	if !ok {
		return nil, fmt.Errorf("topology: %q references unknown element %q", from, target)
	}
	h := e.entry()
	if h == nil {
		return nil, fmt.Errorf("topology: %q references %q before it was built", from, target)
	}
	return h, nil
}

// Build instantiates every declared element (declaration order), wires
// all references, and starts the traffic sources (declaration order).
// See the Builder doc comment for the determinism contract.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	s := b.sim

	// Phase 1: instantiate. Schedulers that need randomness fork the
	// RNG here, in declaration order. No events are scheduled yet.
	for _, e := range b.elems {
		switch e.kind {
		case kindHandler:
			// already built by the caller
		case kindLink:
			sched := e.linkSpec.Sched
			if sched == nil {
				sched = PlainFIFO(0)
			}
			e.link = link.New(s, e.linkSpec.Rate, e.linkSpec.Delay, sched(s), nil)
			e.link.SetPool(b.pool)
		case kindJitter:
			e.jitter = &link.Jitter{Sim: s, Max: e.maxJitter}
			e.jitter.SetPool(b.pool)
		case kindLoss:
			e.loss = &link.Loss{Sim: s, P: e.lossP, Pool: b.pool}
		case kindRouter:
			e.router = node.NewRouter(e.name, nil)
		case kindPolicer:
			e.policer = tokenbucket.NewPolicer(s, e.rate, e.depth, e.mark, nil)
			e.policer.Pool = b.pool
		case kindShaper:
			e.shaper = tokenbucket.NewShaper(s, e.rate, e.depth, e.mark, nil)
			e.shaper.SetPool(b.pool)
			if e.queueLimit > 0 {
				e.shaper.SetQueueLimit(e.queueLimit)
			}
		case kindAFMarker:
			e.marker = tokenbucket.NewAFMarkerSR(s, tokenbucket.NewSRTCM(e.rate, e.cbs, e.ebs), nil)
		case kindDelayTap:
			e.tap = &stats.DelayCollector{Clock: s, Match: e.match}
		case kindSource:
			sp := e.srcSpec
			if sp.Batch > 1 {
				if sp.Kind != CBRSource {
					return nil, fmt.Errorf("topology: source %q: only CBR sources support batching (kind %d is random per flow)", e.name, sp.Kind)
				}
				e.bcbr = &flowbatch.BatchedCBR{Sim: s, Rate: sp.Rate, Size: sp.Size,
					BaseFlow: sp.Flow, DSCP: sp.DSCP, N: sp.Batch, Pool: b.pool}
				continue
			}
			switch sp.Kind {
			case PoissonSource:
				e.poisson = &traffic.Poisson{Sim: s, Rate: sp.Rate, Size: sp.Size, Flow: sp.Flow, DSCP: sp.DSCP, Pool: b.pool}
			case CBRSource:
				e.cbr = &traffic.CBR{Sim: s, Rate: sp.Rate, Size: sp.Size, Flow: sp.Flow, DSCP: sp.DSCP, Pool: b.pool}
			default:
				return nil, fmt.Errorf("topology: source %q has unknown kind %d", e.name, sp.Kind)
			}
		}
	}

	// Phase 1.5: attach trace taps. Pure observation — no events are
	// scheduled and no RNG is touched, so a traced build remains
	// bit-identical to an untraced one.
	if b.trace != nil {
		for _, e := range b.elems {
			hop := b.trace.Hop(e.name)
			switch e.kind {
			case kindLink:
				e.link.Tap, e.link.Hop = b.trace, hop
				if t, ok := e.link.Sched.(queue.Tapped); ok {
					t.SetTap(b.trace, hop)
				}
			case kindLoss:
				e.loss.Tap, e.loss.Hop = b.trace, hop
			case kindPolicer:
				e.policer.Tap, e.policer.Hop = b.trace, hop
			case kindShaper:
				e.shaper.Tap, e.shaper.Hop = b.trace, hop
			case kindAFMarker:
				e.marker.Tap, e.marker.Hop = b.trace, hop
			}
		}
	}

	// Phase 2: wire references (forward references resolve here).
	for _, e := range b.elems {
		switch e.kind {
		case kindHandler:
			// terminals have no next hop
		case kindSource:
			next, err := b.resolve(e.name, e.to)
			if err != nil {
				return nil, err
			}
			switch {
			case e.poisson != nil:
				e.poisson.Next = next
			case e.cbr != nil:
				e.cbr.Next = next
			case e.bcbr != nil:
				e.bcbr.Next = next
			}
		case kindRouter:
			next, err := b.resolve(e.name, e.to)
			if err != nil {
				return nil, err
			}
			e.router.SetDefault(next)
			for _, r := range e.rules {
				action, err := b.resolve(e.name+"/"+r.name, r.to)
				if err != nil {
					return nil, err
				}
				e.router.AddRule(r.name, r.match, action)
			}
		default:
			next, err := b.resolve(e.name, e.to)
			if err != nil {
				return nil, err
			}
			switch e.kind {
			case kindLink:
				e.link.Next = next
			case kindJitter:
				e.jitter.Next = next
			case kindLoss:
				e.loss.Next = next
			case kindPolicer:
				e.policer.SetNext(next)
			case kindShaper:
				e.shaper.SetNext(next)
			case kindAFMarker:
				e.marker.SetNext(next)
			case kindDelayTap:
				e.tap.Next = next
			}
		}
	}

	// Phase 3: start sources in declaration order — each fork of the
	// RNG and each initial event keeps the declared sequence.
	for _, e := range b.elems {
		if e.kind != kindSource {
			continue
		}
		switch {
		case e.poisson != nil:
			e.poisson.Start()
		case e.cbr != nil:
			e.cbr.Start()
		case e.bcbr != nil:
			e.bcbr.Start()
		}
	}

	return &Network{Sim: s, Pool: b.pool, Trace: b.trace, byName: b.byName}, nil
}

// mustBuild is Build for preset code where a wiring error is a bug.
func (b *Builder) mustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// Network is a built topology: the simulator plus every declared
// element, retrievable by name. The typed accessors panic on a missing
// name or kind mismatch — a wiring bug worth failing loudly on.
type Network struct {
	Sim *sim.Simulator
	// Pool is the simulation's packet arena: every element the builder
	// created releases and allocates through it, and externally built
	// endpoints should too.
	Pool *packet.Pool
	// Trace is the packet-trace recorder every built element taps
	// into, or nil when the run is untraced. Presets wire their
	// externally built endpoints (clients, TCP senders) to it too.
	Trace  *ptrace.Recorder
	byName map[string]*elem
}

func (n *Network) get(name string) *elem {
	e, ok := n.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: no element %q", name))
	}
	return e
}

// Handler returns the packet entry point of the named element.
func (n *Network) Handler(name string) packet.Handler {
	h := n.get(name).entry()
	if h == nil {
		panic(fmt.Sprintf("topology: element %q has no entry point", name))
	}
	return h
}

// Link returns the named link.
func (n *Network) Link(name string) *link.Link {
	e := n.get(name)
	if e.link == nil {
		panic(fmt.Sprintf("topology: %q is not a link", name))
	}
	return e.link
}

// Router returns the named router.
func (n *Network) Router(name string) *node.Router {
	e := n.get(name)
	if e.router == nil {
		panic(fmt.Sprintf("topology: %q is not a router", name))
	}
	return e.router
}

// Policer returns the named policer.
func (n *Network) Policer(name string) *tokenbucket.Policer {
	e := n.get(name)
	if e.policer == nil {
		panic(fmt.Sprintf("topology: %q is not a policer", name))
	}
	return e.policer
}

// shaper returns the named shaper.
func (n *Network) shaper(name string) *tokenbucket.Shaper {
	e := n.get(name)
	if e.shaper == nil {
		panic(fmt.Sprintf("topology: %q is not a shaper", name))
	}
	return e.shaper
}

// afMarker returns the named three-color marker.
func (n *Network) afMarker(name string) *tokenbucket.AFMarker {
	e := n.get(name)
	if e.marker == nil {
		panic(fmt.Sprintf("topology: %q is not an AF marker", name))
	}
	return e.marker
}

// delayTap returns the named delay collector.
func (n *Network) delayTap(name string) *stats.DelayCollector {
	e := n.get(name)
	if e.tap == nil {
		panic(fmt.Sprintf("topology: %q is not a delay tap", name))
	}
	return e.tap
}

// Poisson returns the named Poisson source.
func (n *Network) Poisson(name string) *traffic.Poisson {
	e := n.get(name)
	if e.poisson == nil {
		panic(fmt.Sprintf("topology: %q is not a Poisson source", name))
	}
	return e.poisson
}
