package topology

import (
	"fmt"
	"reflect"

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

// LinkSpec declares a serializing link.
type LinkSpec struct {
	Rate  units.BitRate
	Delay units.Time
	Sched queue.Scheduler // the link's own scheduler; nil = unbounded FIFO
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

type ruleDecl struct {
	name  string
	match node.Classifier
	to    string
}

// elem is one declared element: the object its declaration built and
// the name of its next hop ("" for a Handler, which has none).
type elem struct {
	name   string
	to     string
	obj    any
	rules  []ruleDecl // a router's policy, in declaration order
	source starter    // non-nil for a traffic source, started by Build
}

// starter is a traffic source.
type starter interface{ Start() }

// Builder assembles a network graph declaratively: declare named
// nodes, links, conditioning elements, traffic sources and taps in any
// dataflow order (forward references are fine). A declaration builds
// its element; Build taps, wires and starts them and hands back a
// Network of handles.
//
// Determinism contract: each element, and the scheduler handed to a
// link, is built at its declaration, so RIO's RNG fork and every ring
// borrowed from the pool follow declaration order. Build's passes run
// in declaration order too, so sources start (forking the RNG and
// scheduling their first events) in that order. Two builders with the
// same declarations therefore produce bit-identical simulations — and
// a builder that declares elements in the same order a hand-wired
// constructor created them reproduces that constructor.
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
// the build is bit-identical to one on New(seed), and the elements the
// builder makes borrow their ring storage from pool. Neither may belong
// to another live simulation. A nil s builds on a new simulator and a
// nil pool on a new arena. The simulator's calendar width is
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

func (b *Builder) add(name, to string, obj any) *elem {
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("topology: %T element with empty name", obj))
		return nil
	}
	if _, dup := b.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate element %q", name))
		return nil
	}
	e := &elem{name: name, to: to, obj: obj}
	b.elems = append(b.elems, e)
	b.byName[name] = e
	return e
}

// declare adds an element the builder built, to be wired at Build to
// the element named to.
func (b *Builder) declare(name, to string, obj any) *elem {
	if to == "" {
		b.errs = append(b.errs, fmt.Errorf("topology: %q references unknown element %q", name, to))
		return nil
	}
	return b.add(name, to, obj)
}

// Handler registers an externally built endpoint (a client, a TCP
// receiver adapter, a sink) under a name so links and rules can target
// it.
func (b *Builder) Handler(name string, h packet.Handler) {
	if h == nil {
		b.errs = append(b.errs, fmt.Errorf("topology: nil handler %q", name))
		return
	}
	b.add(name, "", h)
}

// Link declares a serializing link.
func (b *Builder) Link(name string, spec LinkSpec) {
	sched := spec.Sched
	if sched == nil {
		sched = queue.NewSingleFIFO(0)
	}
	l := link.New(b.sim, spec.Rate, spec.Delay, sched, nil)
	l.SetPool(b.pool)
	b.declare(name, spec.To, l)
}

// Jitter declares an order-preserving uniform-jitter element.
func (b *Builder) Jitter(name string, max units.Time, to string) {
	j := &link.Jitter{Sim: b.sim, Max: max}
	j.SetPool(b.pool)
	b.declare(name, to, j)
}

// Loss declares an independent random-loss element.
func (b *Builder) Loss(name string, p float64, to string) {
	b.declare(name, to, &link.Loss{Sim: b.sim, P: p, Pool: b.pool})
}

// Router declares a classifying router whose unmatched traffic goes to
// defaultTo. Attach policy with Rule.
func (b *Builder) Router(name, defaultTo string) {
	b.declare(name, defaultTo, node.NewRouter(name, nil))
}

// Rule appends a policy rule to a declared router: packets matching m
// are conditioned by the element named to. Rules apply in declaration
// order, first match wins.
func (b *Builder) Rule(router, rule string, m node.Classifier, to string) {
	e, ok := b.byName[router]
	if ok {
		_, ok = e.obj.(*node.Router)
	}
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("topology: Rule %q on unknown router %q", rule, router))
		return
	}
	e.rules = append(e.rules, ruleDecl{name: rule, match: m, to: to})
}

// Policer declares a dropping token-bucket policer that re-marks
// conformant traffic with mark.
func (b *Builder) Policer(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, to string) {
	p := tokenbucket.NewPolicer(b.sim, rate, depth, mark, nil)
	p.Pool = b.pool
	b.declare(name, to, p)
}

// Shaper declares a delaying token-bucket shaper. queueLimit bounds
// its waiting room (0 keeps the shaper's generous default).
func (b *Builder) Shaper(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, queueLimit int, to string) {
	s := tokenbucket.NewShaper(b.sim, rate, depth, mark, nil)
	s.SetPool(b.pool)
	if queueLimit > 0 {
		s.SetQueueLimit(queueLimit)
	}
	b.declare(name, to, s)
}

// afMarkerSR declares an srTCM three-color marker (green/yellow/red →
// AF11/12/13).
func (b *Builder) afMarkerSR(name string, cir units.BitRate, cbs, ebs units.ByteSize, to string) {
	b.declare(name, to, tokenbucket.NewAFMarkerSR(b.sim, tokenbucket.NewSRTCM(cir, cbs, ebs), nil))
}

// delayTap declares a pass-through delay/jitter collector. A nil match
// measures every packet.
func (b *Builder) delayTap(name string, match func(*packet.Packet) bool, to string) {
	b.declare(name, to, &stats.DelayCollector{Clock: b.sim, Match: match})
}

// Source declares a background traffic source. Sources are started by
// Build, in declaration order.
func (b *Builder) Source(name string, spec SourceSpec) {
	var src starter
	switch {
	case spec.Batch > 1 && spec.Kind != CBRSource:
		b.errs = append(b.errs, fmt.Errorf("topology: source %q: only CBR sources support batching (kind %d is random per flow)", name, spec.Kind))
		return
	case spec.Batch > 1:
		src = &flowbatch.BatchedCBR{Sim: b.sim, Rate: spec.Rate, Size: spec.Size,
			BaseFlow: spec.Flow, DSCP: spec.DSCP, N: spec.Batch, Pool: b.pool}
	case spec.Kind == PoissonSource:
		src = &traffic.Poisson{Sim: b.sim, Rate: spec.Rate, Size: spec.Size, Flow: spec.Flow, DSCP: spec.DSCP, Pool: b.pool}
	case spec.Kind == CBRSource:
		src = &traffic.CBR{Sim: b.sim, Rate: spec.Rate, Size: spec.Size, Flow: spec.Flow, DSCP: spec.DSCP, Pool: b.pool}
	default:
		b.errs = append(b.errs, fmt.Errorf("topology: source %q has unknown kind %d", name, spec.Kind))
		return
	}
	if e := b.declare(name, spec.To, src); e != nil {
		e.source = src
	}
}

// resolve maps a target name to its entry handler.
func (b *Builder) resolve(from, target string) (packet.Handler, error) {
	e, ok := b.byName[target]
	if !ok {
		return nil, fmt.Errorf("topology: %q references unknown element %q", from, target)
	}
	h, ok := e.obj.(packet.Handler)
	if !ok {
		return nil, fmt.Errorf("topology: %q wires into %q, which takes no input", from, target)
	}
	return h, nil
}

// Build taps, wires and starts the declared elements, each pass in
// declaration order. See the Builder doc comment for the determinism
// contract.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}

	// Tap: pure observation — no events are scheduled and no RNG is
	// touched, so a traced build remains bit-identical to an untraced
	// one. Hops the caller registered by hand keep their earlier ids.
	if rec := b.trace; rec != nil {
		for _, e := range b.elems {
			hop := rec.Hop(e.name)
			switch o := e.obj.(type) {
			case *link.Link:
				o.Tap, o.Hop = rec, hop
				if t, ok := o.Sched.(queue.Tapped); ok {
					t.SetTap(rec, hop)
				}
			case *link.Loss:
				o.Tap, o.Hop = rec, hop
			case *tokenbucket.Policer:
				o.Tap, o.Hop = rec, hop
			case *tokenbucket.Shaper:
				o.Tap, o.Hop = rec, hop
			case *tokenbucket.AFMarker:
				o.Tap, o.Hop = rec, hop
			}
		}
	}

	// Wire: forward references resolve here. A Handler has no next hop.
	for _, e := range b.elems {
		if e.to == "" {
			continue
		}
		next, err := b.resolve(e.name, e.to)
		if err != nil {
			return nil, err
		}
		switch o := e.obj.(type) {
		case *link.Link:
			o.Next = next
		case *link.Jitter:
			o.Next = next
		case *link.Loss:
			o.Next = next
		case *node.Router:
			o.SetDefault(next)
			for _, r := range e.rules {
				action, err := b.resolve(e.name+"/"+r.name, r.to)
				if err != nil {
					return nil, err
				}
				o.AddRule(r.name, r.match, action)
			}
		case *tokenbucket.Policer:
			o.SetNext(next)
		case *tokenbucket.Shaper:
			o.SetNext(next)
		case *tokenbucket.AFMarker:
			o.SetNext(next)
		case *stats.DelayCollector:
			o.Next = next
		case *traffic.Poisson:
			o.Next = next
		case *traffic.CBR:
			o.Next = next
		case *flowbatch.BatchedCBR:
			o.Next = next
		}
	}

	// Start: each source's RNG fork and initial event keep the
	// declared sequence.
	for _, e := range b.elems {
		if e.source != nil {
			e.source.Start()
		}
	}

	return &Network{Sim: b.sim, Pool: b.pool, Trace: b.trace, byName: b.byName}, nil
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

// lookup returns the named element as a T.
func lookup[T any](n *Network, name string) T {
	e, ok := n.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: no element %q", name))
	}
	v, ok := e.obj.(T)
	if !ok {
		panic(fmt.Sprintf("topology: %q is not a %v", name, reflect.TypeOf((*T)(nil)).Elem()))
	}
	return v
}

// Handler returns the packet entry point of the named element.
func (n *Network) Handler(name string) packet.Handler { return lookup[packet.Handler](n, name) }

// Link returns the named link.
func (n *Network) Link(name string) *link.Link { return lookup[*link.Link](n, name) }

// Router returns the named router.
func (n *Network) Router(name string) *node.Router { return lookup[*node.Router](n, name) }

// Policer returns the named policer.
func (n *Network) Policer(name string) *tokenbucket.Policer {
	return lookup[*tokenbucket.Policer](n, name)
}

// shaper returns the named shaper.
func (n *Network) shaper(name string) *tokenbucket.Shaper {
	return lookup[*tokenbucket.Shaper](n, name)
}

// afMarker returns the named three-color marker.
func (n *Network) afMarker(name string) *tokenbucket.AFMarker {
	return lookup[*tokenbucket.AFMarker](n, name)
}

// delayTap returns the named delay collector.
func (n *Network) delayTap(name string) *stats.DelayCollector {
	return lookup[*stats.DelayCollector](n, name)
}

// Poisson returns the named Poisson source.
func (n *Network) Poisson(name string) *traffic.Poisson { return lookup[*traffic.Poisson](n, name) }
