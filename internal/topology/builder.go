package topology

import (
	"fmt"
	"reflect"

	"repro/internal/client"
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

	// Batch > 1 declares Batch CBR sources, flows Flow..Flow+Batch-1,
	// under the one name (so one trace hop), started in flow-id order.
	// Only CBR supports batching: declaring Batch on a Poisson source
	// is a Build error, because per-flow RNG forks cannot be
	// reproduced exactly by a shared stream. Rate and Size are per
	// flow.
	Batch int

	To string
}

type ruleDecl struct {
	name  string
	match node.Classifier
	to    string
}

// elem is one declared element: the object its declaration built, the
// name of its next hop ("" for a Handler, which has none) and, for a
// router, its policy in declaration order. Elements are stored by
// value, so a declaration allocates nothing of its own.
type elem struct {
	name  string
	to    string
	obj   any
	rules []ruleDecl
}

// starter is a traffic source: a declared element Build starts.
type starter interface{ Start() }

// Env is the run's environment: the services every element of one
// simulation shares. A runner worker lends one of each to job after
// job, so neither Sim nor Pool may belong to another live simulation.
// A nil field builds a new simulator or arena, lends the receivers no
// storage, or leaves every Tap nil (the datapath's allocation-free
// disabled path).
type Env struct {
	Sim   *sim.Simulator   // Reset to the seed: bit-identical to sim.New(seed)
	Pool  *packet.Pool     // every element's packet and ring arena; numbers packets from 1
	Recv  *client.Scratch  // receive storage lent to the receivers
	Trace *ptrace.Recorder // records each traceable element under its name
}

// Builder assembles a network graph declaratively: declare named
// nodes, links, conditioning elements, traffic sources, receivers and
// taps in any dataflow order (forward references are fine). A
// declaration builds its element from the run's Env, lends it what the
// run lends and taps it: it registers the element's name as a trace
// hop, sets the Tap of a traceable element, and hands a receiver
// (a *client.UDP or *client.Aggregate declared with Handler) the
// packet pool, the receive scratch and client.SliceTolerance. Build
// then only wires the elements and starts the sources, and hands back
// a Network of handles.
//
// Determinism contract: each element, and the scheduler handed to a
// link, is built at its declaration, so RIO's RNG fork, every ring
// borrowed from the pool and every hop id follow declaration order.
// Build's passes run in declaration order too, so sources start
// (forking the RNG and scheduling their first events) in that order.
// Two builders with the same declarations therefore produce
// bit-identical simulations and traces — and a builder that declares
// elements in the same order a hand-wired constructor created them
// reproduces that constructor. Declare each object once: a second
// declaration under another name retaps it under that name.
//
// Three objects are built outside the declarations on purpose, and
// their presets lend and tap them by hand: MultiFlow's batched
// policers (built directly, so six-figure builds skip the name map),
// the mixture's fan-out source (its "vflows" hop is tapped after
// Build) and Local's TCP sender and stream assembler.
type Builder struct {
	env    Env
	elems  []elem
	byName map[string]int // index into elems
	errs   []error
}

// NewBuilder returns a builder for a simulation seeded with seed, built
// in env (see Env for what a nil service means). The trace recorder's
// clock is set to the builder's simulator.
func NewBuilder(seed uint64, env Env) *Builder {
	if env.Sim == nil {
		env.Sim = sim.New(seed)
	} else {
		env.Sim.Reset(seed)
	}
	if env.Pool == nil {
		env.Pool = packet.NewPool()
	} else {
		env.Pool.Rewind()
	}
	if env.Trace != nil {
		env.Trace.SetClock(env.Sim)
	}
	return &Builder{env: env, byName: map[string]int{}}
}

// Sim exposes the simulator so endpoints (servers, clients) can be
// constructed against it before Build.
func (b *Builder) Sim() *sim.Simulator { return b.env.Sim }

// Pool exposes the builder's packet arena so endpoints built outside
// the builder (servers, TCP endpoints) can share it.
func (b *Builder) Pool() *packet.Pool { return b.env.Pool }

// add records a declared element and lends and taps it.
func (b *Builder) add(name, to string, obj any) {
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("topology: %T element with empty name", obj))
		return
	}
	if _, dup := b.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topology: duplicate element %q", name))
		return
	}
	b.byName[name] = len(b.elems)
	b.elems = append(b.elems, elem{name: name, to: to, obj: obj})
	b.lend(name, obj)
}

// lend hands a declared receiver the run's storage, then registers the
// element's trace hop and taps it if it is traceable. It schedules no
// event and touches no RNG, so a traced build stays bit-identical to an
// untraced one.
func (b *Builder) lend(name string, obj any) {
	switch o := obj.(type) {
	case *client.UDP:
		o.Pool, o.Scratch, o.Tolerance = b.env.Pool, b.env.Recv, client.SliceTolerance
	case *client.Aggregate:
		o.Pool = b.env.Pool
	}
	rec := b.env.Trace
	if rec == nil {
		return
	}
	hop := rec.Hop(name)
	switch o := obj.(type) {
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
	case *client.UDP:
		o.Tap, o.Hop = rec, hop
	case *client.Aggregate:
		o.Tap, o.Hop = rec, hop
	}
}

// declared returns the element declared under name, before Build.
func (b *Builder) declared(name string) any { return b.elems[b.byName[name]].obj }

// declare adds an element the builder built, to be wired at Build to
// the element named to.
func (b *Builder) declare(name, to string, obj any) {
	if to == "" {
		b.errs = append(b.errs, fmt.Errorf("topology: %q references unknown element %q", name, to))
		return
	}
	b.add(name, to, obj)
}

// Handler registers an externally built endpoint (a receiver, a TCP
// receiver adapter, a sink) under a name so links and rules can target
// it. A receiver is lent to and tapped here (see Builder).
func (b *Builder) Handler(name string, h packet.Handler) {
	if h == nil {
		b.errs = append(b.errs, fmt.Errorf("topology: nil handler %q", name))
		return
	}
	b.add(name, "", h)
}

// Link declares a serializing link.
func (b *Builder) Link(name string, spec LinkSpec) { b.link(name, spec, false) }

// link declares a serializing link; a lazy one can be made a lazy port
// (link.NewLazy).
func (b *Builder) link(name string, spec LinkSpec, lazy bool) {
	sched := spec.Sched
	if sched == nil {
		sched = queue.NewSingleFIFO(0)
	}
	newLink := link.New
	if lazy {
		newLink = link.NewLazy
	}
	l := newLink(b.env.Sim, spec.Rate, spec.Delay, sched, nil)
	l.SetPool(b.env.Pool)
	b.declare(name, spec.To, l)
}

// Jitter declares an order-preserving uniform-jitter element.
func (b *Builder) Jitter(name string, max units.Time, to string) {
	j := &link.Jitter{Sim: b.env.Sim, Max: max}
	j.SetPool(b.env.Pool)
	b.declare(name, to, j)
}

// Loss declares an independent random-loss element.
func (b *Builder) Loss(name string, p float64, to string) {
	b.declare(name, to, &link.Loss{Sim: b.env.Sim, P: p, Pool: b.env.Pool})
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
	i, ok := b.byName[router]
	if ok {
		_, ok = b.elems[i].obj.(*node.Router)
	}
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("topology: Rule %q on unknown router %q", rule, router))
		return
	}
	b.elems[i].rules = append(b.elems[i].rules, ruleDecl{name: rule, match: m, to: to})
}

// Policer declares a dropping token-bucket policer that re-marks
// conformant traffic with mark.
func (b *Builder) Policer(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, to string) {
	p := tokenbucket.NewPolicer(b.env.Sim, rate, depth, mark, nil)
	p.Pool = b.env.Pool
	b.declare(name, to, p)
}

// Shaper declares a delaying token-bucket shaper. queueLimit bounds
// its waiting room (0 keeps the shaper's generous default).
func (b *Builder) Shaper(name string, rate units.BitRate, depth units.ByteSize, mark packet.DSCP, queueLimit int, to string) {
	s := tokenbucket.NewShaper(b.env.Sim, rate, depth, mark, nil)
	s.SetPool(b.env.Pool)
	if queueLimit > 0 {
		s.SetQueueLimit(queueLimit)
	}
	b.declare(name, to, s)
}

// afMarkerSR declares an srTCM three-color marker (green/yellow/red →
// AF11/12/13).
func (b *Builder) afMarkerSR(name string, cir units.BitRate, cbs, ebs units.ByteSize, to string) {
	b.declare(name, to, tokenbucket.NewAFMarkerSR(b.env.Sim, tokenbucket.NewSRTCM(cir, cbs, ebs), nil))
}

// delayTap declares a pass-through delay/jitter collector. A nil match
// measures every packet.
func (b *Builder) delayTap(name string, match func(*packet.Packet) bool, to string) {
	b.declare(name, to, &stats.DelayCollector{Clock: b.env.Sim, Match: match})
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
		batch := make(cbrBatch, spec.Batch)
		for i := range batch {
			batch[i] = traffic.CBR{Sim: b.env.Sim, Rate: spec.Rate, Size: spec.Size,
				Flow: spec.Flow + packet.FlowID(i), DSCP: spec.DSCP, Pool: b.env.Pool}
		}
		src = batch
	case spec.Kind == PoissonSource:
		src = &traffic.Poisson{Sim: b.env.Sim, Rate: spec.Rate, Size: spec.Size, Flow: spec.Flow, DSCP: spec.DSCP, Pool: b.env.Pool}
	case spec.Kind == CBRSource:
		src = &traffic.CBR{Sim: b.env.Sim, Rate: spec.Rate, Size: spec.Size, Flow: spec.Flow, DSCP: spec.DSCP, Pool: b.env.Pool}
	default:
		b.errs = append(b.errs, fmt.Errorf("topology: source %q has unknown kind %d", name, spec.Kind))
		return
	}
	b.declare(name, spec.To, src)
}

// cbrBatch is a batched CBR declaration: one source per flow, started
// in flow-id order.
type cbrBatch []traffic.CBR

// Start starts every flow's source.
func (c cbrBatch) Start() {
	for i := range c {
		c[i].Start()
	}
}

// resolve maps a target name to its entry handler.
func (b *Builder) resolve(from, target string) (packet.Handler, error) {
	i, ok := b.byName[target]
	if !ok {
		return nil, fmt.Errorf("topology: %q references unknown element %q", from, target)
	}
	h, ok := b.elems[i].obj.(packet.Handler)
	if !ok {
		return nil, fmt.Errorf("topology: %q wires into %q, which takes no input", from, target)
	}
	return h, nil
}

// Build wires the declared elements and starts the sources, each pass
// in declaration order. See the Builder doc comment for the
// determinism contract.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}

	// Wire: forward references resolve here. A Handler has no next hop.
	for i := range b.elems {
		e := &b.elems[i]
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
		case cbrBatch:
			for j := range o {
				o[j].Next = next
			}
		}
	}

	// Start: each source's RNG fork and initial event keep the
	// declared sequence.
	for i := range b.elems {
		if src, ok := b.elems[i].obj.(starter); ok {
			src.Start()
		}
	}

	return &Network{Sim: b.env.Sim, Pool: b.env.Pool, elems: b.elems, byName: b.byName}, nil
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
	Pool   *packet.Pool
	elems  []elem
	byName map[string]int // index into elems
}

// lookup returns the named element as a T.
func lookup[T any](n *Network, name string) T {
	i, ok := n.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: no element %q", name))
	}
	v, ok := n.elems[i].obj.(T)
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
