// Package node assembles data-plane elements into routers.
//
// A Router applies a DiffServ policy at ingress — classify, then run
// the matching conditioning action (police / shape / mark / pass) —
// and forwards the result to an output port, which is a link.Link
// whose scheduler implements the PHBs (EF strict priority over best
// effort). This mirrors the split the paper describes in §2.1: "flow
// classifiers and policers at the edges … scheduling and buffer
// management mechanisms in the core".
package node

import (
	"fmt"

	"repro/internal/packet"
)

// Classifier decides whether a policy rule applies to a packet.
// Matching on FlowID is the simulation analog of the paper's
// (source addr, dest addr) profile at router 1; matching on DSCP is
// the behavior-aggregate classifier of routers 2 and 3.
type Classifier interface {
	Match(p *packet.Packet) bool
}

// FlowMatch matches a specific transport flow.
type FlowMatch packet.FlowID

// Match reports whether p belongs to the flow.
func (f FlowMatch) Match(p *packet.Packet) bool { return p.Flow == packet.FlowID(f) }

// DSCPMatch matches a code point.
type DSCPMatch packet.DSCP

// Match reports whether p carries the code point.
func (d DSCPMatch) Match(p *packet.Packet) bool { return p.DSCP == packet.DSCP(d) }

// Rule pairs a classifier with the conditioning element that handles
// matching packets. The element is any Handler: a tokenbucket.Policer,
// a tokenbucket.Shaper, an AF marker, or the output port directly.
type Rule struct {
	Name   string
	Match  Classifier
	Action packet.Handler

	Hits int
}

// Router is an ordered rule list with a default action. First match
// wins, like a Cisco policy map.
type Router struct {
	Name     string
	rules    []*Rule
	deflt    packet.Handler
	Received int

	// flowIdx is the exact-match fast path: while every rule is a
	// FlowMatch on a distinct flow, first-match-wins degenerates to a
	// single map lookup. The wide demux router of the scaling scenarios
	// carries one rule per flow, and the linear scan there is O(flows)
	// per packet — a top profile entry at N=512. Any rule that breaks
	// the precondition (non-FlowMatch classifier, duplicate flow)
	// disables the index permanently and Handle falls back to the scan.
	flowIdx map[packet.FlowID]*Rule
	noIdx   bool
}

// NewRouter returns a router whose unmatched traffic goes to deflt.
func NewRouter(name string, deflt packet.Handler) *Router {
	if deflt == nil {
		deflt = packet.HandlerFunc(func(*packet.Packet) {})
	}
	return &Router{Name: name, deflt: deflt}
}

// SetDefault replaces the router's default (unmatched-traffic) action.
// The topology builder uses it to wire forward references after all
// elements exist; it must not be called once packets are flowing.
func (r *Router) SetDefault(h packet.Handler) {
	if h == nil {
		h = packet.HandlerFunc(func(*packet.Packet) {})
	}
	r.deflt = h
}

// AddRule appends a policy rule and returns it for stats inspection.
func (r *Router) AddRule(name string, m Classifier, action packet.Handler) *Rule {
	rule := &Rule{Name: name, Match: m, Action: action}
	r.rules = append(r.rules, rule)
	if !r.noIdx {
		if f, ok := m.(FlowMatch); ok {
			if r.flowIdx == nil {
				r.flowIdx = make(map[packet.FlowID]*Rule)
			}
			if _, dup := r.flowIdx[packet.FlowID(f)]; !dup {
				r.flowIdx[packet.FlowID(f)] = rule
				return rule
			}
		}
		r.noIdx, r.flowIdx = true, nil
	}
	return rule
}

// Handle classifies p and runs the first matching action.
func (r *Router) Handle(p *packet.Packet) {
	r.Received++
	if r.flowIdx != nil {
		if rule, ok := r.flowIdx[p.Flow]; ok {
			rule.Hits++
			rule.Action.Handle(p)
			return
		}
		r.deflt.Handle(p)
		return
	}
	for _, rule := range r.rules {
		if rule.Match.Match(p) {
			rule.Hits++
			rule.Action.Handle(p)
			return
		}
	}
	r.deflt.Handle(p)
}

// String summarizes the router's policy.
func (r *Router) String() string {
	return fmt.Sprintf("router{%s rules=%d rx=%d}", r.Name, len(r.rules), r.Received)
}
