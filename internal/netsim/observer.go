package netsim

import (
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// EventKind names one kind of fabric event.
type EventKind uint8

// Fabric event kinds. The first six are transitions: each bumps its
// counter (RerouteRetry has none), leaves a trace instant (RerouteRetry
// does not) and a flight-recorder note. FlowRouted and FlowDone go to the
// subscribers alone.
const (
	LinkDown     EventKind = iota // a cable failed (FailCable)
	LinkUp                        // a cable recovered (RecoverCable)
	NodeDown                      // a switch crashed (FailNode)
	NodeUp                        // a switch recovered (RecoverNode)
	Reroute                       // a reroute pass finished
	RerouteRetry                  // the follow-up pass after a reroute left flows stalled
	FlowRouted                    // a flow was (re)routed
	FlowDone                      // a flow completed (not on abort)
)

// kindNames names each transition in trace instants and flight notes.
var kindNames = [...]string{
	LinkDown:     "link_down",
	LinkUp:       "link_up",
	NodeDown:     "node_down",
	NodeUp:       "node_up",
	Reroute:      "reroute",
	RerouteRetry: "reroute_retry",
}

// Event is one fabric event. Which fields are set depends on Kind: Link
// for LinkDown/LinkUp, Node for NodeDown/NodeUp, Repathed and Stalled
// (flows re-pathed and flows left stalled) for Reroute/RerouteRetry, Flow
// for FlowRouted/FlowDone. Hops holds a FlowRouted flow's hash decisions
// behind its new path (always under in-band telemetry; otherwise
// collected on demand for the subscribers); it is valid only for the
// duration of the Observe call, so subscribers must not retain it.
type Event struct {
	Kind     EventKind
	At       sim.Time
	Link     topo.LinkID
	Node     topo.NodeID
	Repathed int
	Stalled  int
	Flow     *Flow
	Hops     []route.HopDecision
}

// Observer receives fabric events synchronously as the simulation runs.
// It is the streaming counterpart of the dumped artifacts (flow log,
// in-band records): an online consumer (the health monitor, the memo
// recorder) sees every topology transition, reroute pass, routing
// decision and flow completion the instant it happens, without any
// post-run parsing.
//
// Observe runs inside the simulator's event dispatch: it must not mutate
// the simulator and must be deterministic (no wall clock, no global
// randomness), or same-seed runs lose byte-identical artifacts.
type Observer interface {
	Observe(e Event)
}

// Subscribe appends o to the subscriber list. Every event reaches the
// subscribers in subscription order. A nil subscriber panics: the fan-out
// calls each one unguarded.
func (s *Sim) Subscribe(o Observer) {
	if o == nil {
		panic("netsim: nil observer")
	}
	s.observers = append(s.observers, o)
}

// Observers returns the subscribers in delivery order (shared slice;
// callers must not mutate).
func (s *Sim) Observers() []Observer { return s.observers }

// emit publishes e: the transition counter, then the trace instant, then
// each subscriber in order, then the flight-recorder note. The health
// monitor marks the flight recorder from inside Observe, so its mark
// lands before the note of the transition that caused it.
func (s *Sim) emit(e Event) {
	switch e.Kind {
	case LinkDown, LinkUp:
		s.ctrLinkEvents.Inc()
		s.instant(kindNames[e.Kind], telemetry.Arg{K: "link", V: int(e.Link)})
	case NodeDown, NodeUp:
		s.ctrLinkEvents.Inc()
		s.instant(kindNames[e.Kind], telemetry.Arg{K: "node", V: int(e.Node)},
			telemetry.Arg{K: "name", V: s.Top.Node(e.Node).Name})
	case Reroute:
		s.ctrReroutes.Inc()
		s.instant(kindNames[e.Kind],
			telemetry.Arg{K: "repathed", V: e.Repathed},
			telemetry.Arg{K: "still_stalled", V: e.Stalled > 0})
	}
	for _, o := range s.observers {
		o.Observe(e) //hpnlint:allow nilguard -- Subscribe rejects nil, so no subscriber is nil
	}
	if s.Flight != nil && e.Kind < FlowRouted {
		subject, a, b := "", int64(e.Repathed), int64(e.Stalled)
		switch e.Kind {
		case LinkDown, LinkUp:
			subject, a, b = s.flightLinkSubject(e.Link), int64(e.Link), 0
		case NodeDown, NodeUp:
			subject, a, b = s.Top.Node(e.Node).Name, int64(e.Node), 0
		}
		s.Flight.Note(int64(e.At), kindNames[e.Kind], subject, a, b)
	}
}

// observeRouted emits FlowRouted after routeFlow settles a flow's path.
// Under in-band telemetry the flow's own hop state is authoritative;
// otherwise the Sim-level obsHops scratch (filled by routeFlow's
// PathObserved callback) carries the decisions.
func (s *Sim) observeRouted(f *Flow) {
	if len(s.observers) == 0 {
		return
	}
	hops := s.obsHops
	if s.inband != nil {
		hops = nil
		if f.ib != nil {
			hops = f.ib.hops
		}
	}
	s.emit(Event{Kind: FlowRouted, At: s.Eng.Now(), Flow: f, Hops: hops})
}
