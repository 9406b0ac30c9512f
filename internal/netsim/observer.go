package netsim

import (
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// Observer receives fabric events synchronously as the simulation runs.
// It is the streaming counterpart of the dumped artifacts (flow log,
// in-band records): an online consumer (the health monitor) sees every
// topology transition, reroute pass, routing decision and flow completion
// the instant it happens, without any post-run parsing.
//
// All callbacks run inside the simulator's event dispatch: they must not
// mutate the simulator and must be deterministic (no wall clock, no global
// randomness), or same-seed runs lose byte-identical artifacts. With no
// observer attached every emission point costs one nil check (the same
// contract as the Trace/Reg telemetry surfaces; enforced by the nilguard
// hpnlint rule).
type Observer interface {
	// LinkEvent fires on a cable transition (up=false on FailCable,
	// up=true on RecoverCable).
	LinkEvent(now sim.Time, l topo.LinkID, up bool)
	// NodeEvent fires on a switch transition (FailNode / RecoverNode).
	NodeEvent(now sim.Time, n topo.NodeID, up bool)
	// RerouteDone fires after each reroute pass with the number of flows
	// re-pathed and the number left stalled.
	RerouteDone(now sim.Time, repathed, stillStalled int)
	// FlowRouted fires after a flow is (re)routed. hops holds the hash
	// decisions behind the new path when available (always under in-band
	// telemetry; otherwise collected on demand for the observer); it is
	// only valid for the duration of the call — observers must not retain
	// the slice.
	FlowRouted(now sim.Time, f *Flow, hops []route.HopDecision)
	// FlowDone fires when a flow completes (not on abort).
	FlowDone(now sim.Time, f *Flow)
}

// SetObserver attaches (or, with nil, detaches) the fabric-event observer.
// At most one observer is supported; layering belongs in the observer.
func (s *Sim) SetObserver(o Observer) { s.obs = o }

// Observer returns the attached observer, or nil.
func (s *Sim) Observer() Observer { return s.obs }

// observeRouted emits FlowRouted after routeFlow settles a flow's path.
// Under in-band telemetry the flow's own hop state is authoritative;
// otherwise the Sim-level obsHops scratch (filled by routeFlow's
// PathObserved callback) carries the decisions.
func (s *Sim) observeRouted(f *Flow) {
	if s.obs == nil {
		return
	}
	hops := s.obsHops
	if s.inband != nil {
		hops = nil
		if f.ib != nil {
			hops = f.ib.hops
		}
	}
	s.obs.FlowRouted(s.Eng.Now(), f, hops)
}
