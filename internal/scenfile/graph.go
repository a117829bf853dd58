package scenfile

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// The "graph" shape: an explicit element graph compiled onto a
// topology.Builder. This is the shape with no Go preset behind it —
// dumbbells, parking lots, asymmetric multi-bottleneck paths — so the
// compiler here owns the full determinism contract: elements are
// declared in file order (the Builder forks the simulator RNG and
// numbers trace hops per element in declaration order), the clients
// before them in flow order and then the sink, and servers start in
// flow order after Build. Two runs of the same file are therefore
// bit-identical, like every preset.

// GraphShape declares an element graph plus the video flows that
// traverse it.
type GraphShape struct {
	Seed uint64 `json:"seed"`

	// Flows are the measured video streams: each gets an auto-declared
	// client ("<name>-client") and a paced server injecting at Entry.
	Flows []GraphFlow `json:"flows"`

	// Elements is the wired graph, in declaration order. Targets may
	// reference any element, any "<flow>-client", or the auto-declared
	// terminal "sink".
	Elements []Element `json:"elements"`

	// Borders names the policer elements whose aggregate verdicts
	// define the figure's PacketLoss column (Σ dropped / Σ offered).
	Borders []string `json:"borders,omitempty"`

	// Sweep, when present, overrides the named policers' token rates
	// across the axis — one figure row per rate. Without it the
	// scenario runs a single point at the declared rates.
	Sweep *GraphSweep `json:"sweep,omitempty"`
}

// GraphFlow is one measured video stream.
type GraphFlow struct {
	Name       string  `json:"name"`
	Clip       string  `json:"clip"`
	EncRateBps float64 `json:"enc_rate_bps"`
	Flow       int64   `json:"flow"`  // packet flow id (> 0)
	Entry      string  `json:"entry"` // element the server injects into
}

// SchedJSON selects a link scheduler: "ef_priority" (High/Low class
// limits) or "fifo" (Limit; 0 = unbounded).
type SchedJSON struct {
	Kind  string `json:"kind"`
	High  int    `json:"high,omitempty"`
	Low   int    `json:"low,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// RuleJSON is one router classification rule: exactly one of Flow or
// DSCP selects the match.
type RuleJSON struct {
	Name string `json:"name"`
	Flow int64  `json:"flow,omitempty"`
	DSCP string `json:"dscp,omitempty"`
	To   string `json:"to"`
}

// SourceJSON is a background-traffic generator attached to a source
// element.
type SourceJSON struct {
	Model   string  `json:"model"` // "poisson" or "cbr"
	RateBps float64 `json:"rate_bps"`
	Size    int     `json:"size,omitempty"` // packet size; 0 = Ethernet MTU
	Flow    int64   `json:"flow"`
	DSCP    string  `json:"dscp"`
	Batch   int     `json:"batch,omitempty"` // CBR only: phase-offset virtual flows
}

// Element is one node of the graph. Kind selects which fields apply:
//
//	link:    rate_bps, delay_us, sched, to
//	jitter:  max_jitter_us, to
//	loss:    loss_p, to
//	router:  to (default route), rules
//	policer: rate_bps, depth_bytes, mark, to
//	shaper:  rate_bps, depth_bytes, mark, to
//	source:  source, to
type Element struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	To   string `json:"to,omitempty"`

	RateBps     float64     `json:"rate_bps,omitempty"`
	DelayUS     int64       `json:"delay_us,omitempty"`
	Sched       *SchedJSON  `json:"sched,omitempty"`
	MaxJitterUS int64       `json:"max_jitter_us,omitempty"`
	LossP       float64     `json:"loss_p,omitempty"`
	DepthBytes  int64       `json:"depth_bytes,omitempty"`
	Mark        string      `json:"mark,omitempty"`
	Rules       []RuleJSON  `json:"rules,omitempty"`
	Source      *SourceJSON `json:"source,omitempty"`
}

// GraphSweep sweeps a parameter of named elements. "token_rate" (the
// only parameter so far) retargets each named policer's rate.
type GraphSweep struct {
	Parameter string   `json:"parameter"`
	Targets   []string `json:"targets"`
	FromKbps  int      `json:"from_kbps"`
	ToKbps    int      `json:"to_kbps"`
	StepKbps  int      `json:"step_kbps"`
}

func checkDSCP(field, name string) error {
	if _, ok := dscps[name]; !ok {
		return errf(field, "unknown DSCP %q (have \"ef\", \"af11\", \"af12\", \"af13\", \"be\")", name)
	}
	return nil
}

func (g *GraphShape) validate() error {
	if len(g.Flows) == 0 {
		return errf("graph.flows", "at least one measured video flow is required")
	}
	// Known targets: the auto-declared sink and clients, then every
	// element. Collect names first — wiring may reference forward. The
	// value says whether the name takes input: a source has no entry
	// point, so nothing may be wired to it.
	known := map[string]bool{"sink": true}
	for i, gf := range g.Flows {
		field := fmt.Sprintf("graph.flows[%d]", i)
		if gf.Name == "" {
			return errf(field+".name", "required")
		}
		cl := gf.Name + "-client"
		if _, dup := known[cl]; dup {
			return errf(field+".name", "duplicate flow name %q", gf.Name)
		}
		known[cl] = true
	}
	for i, el := range g.Elements {
		field := fmt.Sprintf("graph.elements[%d]", i)
		if el.Name == "" {
			return errf(field+".name", "required")
		}
		if _, dup := known[el.Name]; dup {
			return errf(field+".name", "duplicate element name %q", el.Name)
		}
		known[el.Name] = el.Kind != "source"
	}
	flowIDs := map[int64]bool{}
	for i, gf := range g.Flows {
		field := fmt.Sprintf("graph.flows[%d]", i)
		if err := checkClip(field+".clip", gf.Clip); err != nil {
			return err
		}
		if err := checkRate(field+".enc_rate_bps", gf.EncRateBps); err != nil {
			return err
		}
		if err := checkFlowID(field+".flow", gf.Flow); err != nil {
			return err
		}
		if flowIDs[gf.Flow] {
			return errf(field+".flow", "duplicate flow id %d", gf.Flow)
		}
		flowIDs[gf.Flow] = true
		if err := checkTarget(field+".entry", gf.Entry, known); err != nil {
			return err
		}
	}
	policers := map[string]bool{}
	for i, el := range g.Elements {
		field := fmt.Sprintf("graph.elements[%d]", i)
		if err := el.validate(field, known); err != nil {
			return err
		}
		if el.Kind == "policer" {
			policers[el.Name] = true
		}
	}
	if err := g.checkAcyclic(); err != nil {
		return err
	}
	for i, name := range g.Borders {
		if !policers[name] {
			return errf(fmt.Sprintf("graph.borders[%d]", i), "%q does not name a policer element", name)
		}
	}
	if g.Sweep != nil {
		if g.Sweep.Parameter != "token_rate" {
			return errf("graph.sweep.parameter", "unknown sweep parameter %q (have \"token_rate\")", g.Sweep.Parameter)
		}
		if len(g.Sweep.Targets) == 0 {
			return errf("graph.sweep.targets", "at least one policer target is required")
		}
		for i, name := range g.Sweep.Targets {
			if !policers[name] {
				return errf(fmt.Sprintf("graph.sweep.targets[%d]", i), "%q does not name a policer element", name)
			}
		}
		if err := (&Sweep{FromKbps: g.Sweep.FromKbps, ToKbps: g.Sweep.ToKbps,
			StepKbps: g.Sweep.StepKbps}).validate("graph.sweep"); err != nil {
			return err
		}
	}
	return nil
}

// checkAcyclic rejects a directed cycle over the element and rule "to"
// wires: a packet on one circulates until the horizon, or, through
// routers alone, recurses until the stack overflows. The error names
// the field whose wire closes the cycle.
func (g *GraphShape) checkAcyclic() error {
	at := make(map[string]int, len(g.Elements))
	for i, el := range g.Elements {
		at[el.Name] = i
	}
	done := make([]bool, len(g.Elements))
	var path []string // the elements visit is inside, outermost first
	var visit func(i int) error
	visit = func(i int) error {
		el := &g.Elements[i]
		path = append(path, el.Name)
		field := fmt.Sprintf("graph.elements[%d]", i)
		wires := [][2]string{{field + ".to", el.To}}
		for j, r := range el.Rules {
			wires = append(wires, [2]string{fmt.Sprintf("%s.rules[%d].to", field, j), r.To})
		}
		for _, w := range wires {
			if k := slices.Index(path, w[1]); k >= 0 {
				return errf(w[0], "wiring cycle %s", strings.Join(append(path[k:], w[1]), " → "))
			}
			if k, ok := at[w[1]]; ok && !done[k] {
				if err := visit(k); err != nil {
					return err
				}
			}
		}
		path, done[i] = path[:len(path)-1], true
		return nil
	}
	for i := range g.Elements {
		if !done[i] {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkTarget checks where a wire ends: at a name the graph declares,
// and one that takes input (see known in GraphShape.validate).
func checkTarget(field, name string, known map[string]bool) error {
	input, ok := known[name]
	switch {
	case !ok:
		return errf(field, "unknown element %q", name)
	case !input:
		return errf(field, "%q is a source; sources take no input", name)
	}
	return nil
}

// validate checks one element's kind-specific contract. Fields that
// do not apply to the kind must be unset — a knob that would be
// silently ignored is rejected instead.
func (el *Element) validate(field string, known map[string]bool) error {
	needTo := func() error {
		if el.To == "" {
			return errf(field+".to", "required for kind %q", el.Kind)
		}
		return checkTarget(field+".to", el.To, known)
	}
	type knob struct {
		set  bool
		name string
	}
	forbid := func(knobs ...knob) error {
		for _, k := range knobs {
			if k.set {
				return errf(field+"."+k.name, "does not apply to kind %q", el.Kind)
			}
		}
		return nil
	}
	rate := knob{el.RateBps != 0, "rate_bps"}
	delay := knob{el.DelayUS != 0, "delay_us"}
	sched := knob{el.Sched != nil, "sched"}
	jit := knob{el.MaxJitterUS != 0, "max_jitter_us"}
	loss := knob{el.LossP != 0, "loss_p"}
	depth := knob{el.DepthBytes != 0, "depth_bytes"}
	mark := knob{el.Mark != "", "mark"}
	rules := knob{el.Rules != nil, "rules"}
	src := knob{el.Source != nil, "source"}

	switch el.Kind {
	case "link":
		if err := forbid(jit, loss, depth, mark, rules, src); err != nil {
			return err
		}
		if err := checkRate(field+".rate_bps", el.RateBps); err != nil {
			return err
		}
		if el.DelayUS < 0 {
			return errf(field+".delay_us", "propagation delay must be >= 0, got %d", el.DelayUS)
		}
		if el.Sched != nil {
			switch el.Sched.Kind {
			case "ef_priority":
				if el.Sched.Limit != 0 {
					return errf(field+".sched.limit", "does not apply to kind %q", el.Sched.Kind)
				}
				if el.Sched.High < 0 || el.Sched.Low < 0 {
					return errf(field+".sched", "class limits must be >= 0")
				}
			case "fifo":
				if el.Sched.High != 0 || el.Sched.Low != 0 {
					return errf(field+".sched", "high/low do not apply to kind %q", el.Sched.Kind)
				}
				if el.Sched.Limit < 0 {
					return errf(field+".sched.limit", "queue limit must be >= 0 (0 = unbounded), got %d", el.Sched.Limit)
				}
			default:
				return errf(field+".sched.kind", "unknown scheduler %q (have \"ef_priority\", \"fifo\")", el.Sched.Kind)
			}
		}
		return needTo()
	case "jitter":
		if err := forbid(rate, delay, sched, loss, depth, mark, rules, src); err != nil {
			return err
		}
		if el.MaxJitterUS < 0 {
			return errf(field+".max_jitter_us", "jitter bound must be >= 0, got %d", el.MaxJitterUS)
		}
		return needTo()
	case "loss":
		if err := forbid(rate, delay, sched, jit, depth, mark, rules, src); err != nil {
			return err
		}
		if el.LossP < 0 || el.LossP > 1 {
			return errf(field+".loss_p", "loss probability must be in [0, 1], got %v", el.LossP)
		}
		return needTo()
	case "router":
		if err := forbid(rate, delay, sched, jit, loss, depth, mark, src); err != nil {
			return err
		}
		ruleNames := map[string]bool{}
		for i, r := range el.Rules {
			rf := fmt.Sprintf("%s.rules[%d]", field, i)
			if r.Name == "" {
				return errf(rf+".name", "required")
			}
			if ruleNames[r.Name] {
				return errf(rf+".name", "duplicate rule name %q", r.Name)
			}
			ruleNames[r.Name] = true
			switch {
			case r.Flow != 0 && r.DSCP != "":
				return errf(rf, "declare flow or dscp, not both")
			case r.Flow == 0 && r.DSCP == "":
				return errf(rf, "a rule needs a flow or dscp match")
			case r.Flow != 0:
				if err := checkFlowID(rf+".flow", r.Flow); err != nil {
					return err
				}
			case r.DSCP != "":
				if err := checkDSCP(rf+".dscp", r.DSCP); err != nil {
					return err
				}
			}
			if err := checkTarget(rf+".to", r.To, known); err != nil {
				return err
			}
		}
		return needTo()
	case "policer", "shaper":
		if err := forbid(delay, sched, jit, loss, rules, src); err != nil {
			return err
		}
		if !(el.RateBps > 0) {
			return errf(field+".rate_bps", "%s %q needs a positive rate, got %v", el.Kind, el.Name, el.RateBps)
		}
		if el.DepthBytes <= 0 {
			return errf(field+".depth_bytes", "bucket depth must be positive, got %d", el.DepthBytes)
		}
		if err := checkDSCP(field+".mark", el.Mark); err != nil {
			return err
		}
		return needTo()
	case "source":
		if err := forbid(rate, delay, sched, jit, loss, depth, mark, rules); err != nil {
			return err
		}
		if el.Source == nil {
			return errf(field+".source", "required for kind \"source\"")
		}
		s := el.Source
		switch s.Model {
		case "poisson":
			if s.Batch != 0 {
				return errf(field+".source.batch", "poisson sources cannot be batched (their per-flow RNG forks are not replayable); use \"cbr\"")
			}
		case "cbr":
			if s.Batch < 0 {
				return errf(field+".source.batch", "batch must be >= 0, got %d", s.Batch)
			}
		default:
			return errf(field+".source.model", "unknown source model %q (have \"poisson\", \"cbr\")", s.Model)
		}
		if err := checkRate(field+".source.rate_bps", s.RateBps); err != nil {
			return err
		}
		if s.Size < 0 {
			return errf(field+".source.size", "packet size must be >= 0 (0 = Ethernet MTU), got %d", s.Size)
		}
		if err := checkFlowID(field+".source.flow", s.Flow); err != nil {
			return err
		}
		if s.Batch > 1 && int64(s.Batch)-1 > maxFlowID-s.Flow {
			return errf(field+".source.batch", "a batch of %d from flow %d passes the largest flow id %d",
				s.Batch, s.Flow, int64(maxFlowID))
		}
		if err := checkDSCP(field+".source.dscp", s.DSCP); err != nil {
			return err
		}
		return needTo()
	default:
		return errf(field+".kind", "unknown element kind %q (have \"link\", \"jitter\", \"loss\", \"router\", \"policer\", \"shaper\", \"source\")", el.Kind)
	}
}

// maxFlowID is the largest packet.FlowID: a larger id would wrap onto a
// small one and silently merge two flows.
const maxFlowID = math.MaxUint32

// checkFlowID validates a declared packet flow id.
func checkFlowID(field string, id int64) error {
	if id <= 0 || id > maxFlowID {
		return errf(field, "flow id must be in [1, %d], got %d", int64(maxFlowID), id)
	}
	return nil
}

// compileGraph builds the runnable scenario. The token axis is the
// sweep (or a single declared-rates point without one); the figure's
// Depth column shows the first border's declared bucket depth.
func (f *File) compileGraph() experiment.Scenario {
	g := f.Graph
	var tokens []units.BitRate
	if g.Sweep != nil {
		tokens = experiment.TokenSweep(g.Sweep.FromKbps, g.Sweep.ToKbps, g.Sweep.StepKbps)
	} else {
		tokens = []units.BitRate{0} // sentinel: run at declared rates
	}
	var depth units.ByteSize
	if len(g.Borders) > 0 {
		for _, el := range g.Elements {
			if el.Name == g.Borders[0] {
				depth = units.ByteSize(el.DepthBytes)
			}
		}
	}
	return graphGrid(f.Name, f.ID, f.Title, g, tokens, depth)
}

// graphGrid is a graph file's scenario: one point per token-axis point,
// folded into a "mean" curve (the across-flow mean evaluation) and a
// "worst" curve (the worst flow's). It is not shard-capable: a graph
// point is one unpartitioned simulator, so dsbench -shards is rejected
// up front through the capability probe.
func graphGrid(name, id, title string, g *GraphShape, tokens []units.BitRate, depth units.ByteSize) *experiment.Grid {
	return &experiment.Grid{Key: name, ID: id, Title: title, Points: len(tokens), Seed: g.Seed,
		Run: func(ctx *experiment.Ctx, i int, seed uint64) experiment.Point {
			return g.runPoint(ctx, tokens[i], depth, seed)
		},
		Fold: meanAndWorst,
		Thin: func(n int) experiment.Scenario {
			return graphGrid(name, id, title, g, experiment.Scale(tokens, n), depth)
		},
	}
}

// meanAndWorst is the graph fold: the points as they are, and each
// point with the evaluation of its worst flow in place of the mean —
// the mean itself where no flow's quality index exceeds it.
func meanAndWorst(results []experiment.Point) []experiment.Series {
	worst := experiment.Series{Label: "worst"}
	for _, pt := range results {
		w := pt
		for _, ev := range pt.Flows {
			if ev.Quality > w.Quality {
				w.Evaluation = ev
			}
		}
		w.Flows = nil
		worst.Points = append(worst.Points, w)
	}
	return []experiment.Series{{Label: "mean", Points: results}, worst}
}

// encodings resolves each flow's clip and rate to the shared encoding
// cache.
func (g *GraphShape) encodings() []*video.Encoding {
	encs := make([]*video.Encoding, len(g.Flows))
	for i, gf := range g.Flows {
		encs[i] = encodingFor(gf.Clip, gf.EncRateBps)
	}
	return encs
}

// runPoint builds and runs the graph once at the given token rate
// (0 = declared rates) and seed, and reduces it to a Point.
func (g *GraphShape) runPoint(ctx *experiment.Ctx, tok units.BitRate, depth units.ByteSize, seed uint64) experiment.Point {
	encs := g.encodings()
	rec := ctx.NewRecorder()
	net, clients := g.build(topology.Env{Sim: ctx.Sim, Pool: ctx.Pool, Recv: ctx.Recv, Trace: rec}, encs, tok, seed)
	net.Sim.Run()

	label := "declared"
	if tok > 0 {
		label = fmt.Sprintf("tok%d", int64(tok))
	}
	ctx.Finish(label, rec, net.Sim, topology.ShardStats{}, len(clients), time.Time{})

	pt := experiment.Point{TokenRate: tok, Depth: depth}
	if tok == 0 {
		pt.Label = label
	}
	for i, cl := range clients {
		cl.Finish()
		ev := ctx.Eval.Evaluate(cl.Trace(), encs[i], encs[i])
		pt.Flows = append(pt.Flows, ev)
		pt.FrameLoss += ev.FrameLoss
		pt.Quality += ev.Quality
		pt.Calibration += ev.Calibration
	}
	n := float64(len(pt.Flows))
	pt.FrameLoss /= n
	pt.Quality /= n
	var passed, dropped int
	for _, name := range g.Borders {
		p := net.Policer(name)
		passed += p.Passed
		dropped += p.Dropped
	}
	if passed+dropped > 0 {
		pt.PacketLoss = float64(dropped) / float64(passed+dropped)
	}
	return pt
}

// build declares the graph in env at the given token rate and seed,
// wires it and starts the flows' servers. It returns the network, its
// horizon set, and the flows' clients.
func (g *GraphShape) build(env topology.Env, encs []*video.Encoding, tok units.BitRate, seed uint64) (*topology.Network, []*client.UDP) {
	b := topology.NewBuilder(seed, env)
	clients := make([]*client.UDP, len(g.Flows))
	for i, gf := range g.Flows {
		clients[i] = client.NewUDP(b.Sim(), encs[i].Clip.FrameCount())
		b.Handler(gf.Name+"-client", clients[i])
	}
	sink := packet.Sink{Pool: b.Pool()}
	b.Handler("sink", &sink)
	swept := map[string]bool{}
	if g.Sweep != nil {
		for _, t := range g.Sweep.Targets {
			swept[t] = true
		}
	}
	for i := range g.Elements {
		declareElement(b, &g.Elements[i], tok, swept)
	}
	net, err := b.Build()
	if err != nil {
		// validate admitted the graph: every wire ends at an element
		// with an entry point (the "is a source" rows of
		// TestValidationNamesOffendingField show it refusing the last
		// files that reached here), so a Build failure is a compiler
		// bug, not bad user input.
		panic(fmt.Sprintf("scenfile: building validated graph: %v", err))
	}

	var horizon units.Time
	for i, gf := range g.Flows {
		srv := &server.Paced{Sim: net.Sim, Enc: encs[i], Flow: packet.FlowID(gf.Flow),
			Next: net.Handler(gf.Entry), Pool: net.Pool}
		srv.Start()
		if h := units.FromSeconds(encs[i].Clip.DurationSeconds() + 30); h > horizon {
			horizon = h
		}
	}
	net.Sim.SetHorizon(horizon)
	return net, clients
}

// declareElement declares one validated element on the Builder,
// substituting the sweep token rate into targeted policers.
func declareElement(b *topology.Builder, el *Element, tok units.BitRate, swept map[string]bool) {
	switch el.Kind {
	case "link":
		b.Link(el.Name, topology.LinkSpec{
			Rate:  units.BitRate(el.RateBps),
			Delay: units.Time(el.DelayUS) * units.Microsecond,
			Sched: scheduler(el.Sched),
			To:    el.To,
		})
	case "jitter":
		b.Jitter(el.Name, units.Time(el.MaxJitterUS)*units.Microsecond, el.To)
	case "loss":
		b.Loss(el.Name, el.LossP, el.To)
	case "router":
		b.Router(el.Name, el.To)
		for _, r := range el.Rules {
			b.Rule(el.Name, r.Name, classifier(r), r.To)
		}
	case "policer":
		rate := units.BitRate(el.RateBps)
		if tok > 0 && swept[el.Name] {
			rate = tok
		}
		b.Policer(el.Name, rate, units.ByteSize(el.DepthBytes), dscps[el.Mark], el.To)
	case "shaper":
		b.Shaper(el.Name, units.BitRate(el.RateBps), units.ByteSize(el.DepthBytes), dscps[el.Mark], 0, el.To)
	case "source":
		s := el.Source
		kind := topology.PoissonSource
		if s.Model == "cbr" {
			kind = topology.CBRSource
		}
		b.Source(el.Name, topology.SourceSpec{
			Kind: kind, Rate: units.BitRate(s.RateBps), Size: s.Size,
			Flow: packet.FlowID(s.Flow), DSCP: dscps[s.DSCP],
			Batch: s.Batch, To: el.To,
		})
	}
}

// scheduler builds a validated scheduler declaration; nil stays nil
// (the Builder's unbounded FIFO default).
func scheduler(s *SchedJSON) queue.Scheduler {
	switch {
	case s == nil:
		return nil
	case s.Kind == "ef_priority":
		return queue.NewEFPriority(s.High, s.Low)
	}
	return queue.NewSingleFIFO(s.Limit)
}

// classifier builds the rule's match from its validated flow/dscp
// selector.
func classifier(r RuleJSON) node.Classifier {
	if r.Flow != 0 {
		return node.FlowMatch(packet.FlowID(r.Flow))
	}
	return node.DSCPMatch(dscps[r.DSCP])
}
