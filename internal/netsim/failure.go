package netsim

import (
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// FailCable takes both directions of a cable down. Flows traversing it
// stall immediately (packets stop moving); routing re-converges around it
// after the router's convergence delay, at which point stalled flows are
// re-pathed.
func (s *Sim) FailCable(l topo.LinkID) {
	s.beginMutate()
	defer s.endMutate()
	now := s.Eng.Now()
	s.Top.SetCableState(l, false)
	s.R.NoteLinkFailed(l, now)
	s.ctrLinkEvents.Inc()
	s.instant("link_down", telemetry.Arg{K: "link", V: int(l)})
	if s.obs != nil {
		s.obs.LinkEvent(now, l, false)
	}
	if s.Flight != nil {
		s.Flight.Note(int64(now), "link_down", s.flightLinkSubject(l), int64(l), 0)
	}
	rev := s.Top.Link(l).Reverse
	for _, f := range s.active {
		if pathHasLink(f.Path, l) || pathHasLink(f.Path, rev) {
			s.markFlow(f)
			f.Stalled = true
			f.Rate = 0
		}
	}
	s.scheduleReroute(s.R.ConvergenceDelay)
}

// RecoverCable restores a cable. Stalled flows are re-pathed after a short
// re-advertisement delay; healthy flows are left untouched (real ECMP does
// remap some flows when a member returns, but moving working flows never
// changes aggregate fluid rates on a symmetric fabric).
func (s *Sim) RecoverCable(l topo.LinkID) {
	s.beginMutate()
	defer s.endMutate()
	s.Top.SetCableState(l, true)
	s.R.NoteLinkRecovered(l)
	s.ctrLinkEvents.Inc()
	s.instant("link_up", telemetry.Arg{K: "link", V: int(l)})
	if s.obs != nil {
		s.obs.LinkEvent(s.Eng.Now(), l, true)
	}
	if s.Flight != nil {
		s.Flight.Note(int64(s.Eng.Now()), "link_up", s.flightLinkSubject(l), int64(l), 0)
	}
	s.scheduleReroute(200 * sim.Millisecond)
}

// FailNode crashes a switch: every flow transiting it stalls.
func (s *Sim) FailNode(n topo.NodeID) {
	s.beginMutate()
	defer s.endMutate()
	now := s.Eng.Now()
	s.Top.SetNodeState(n, false)
	s.R.NoteNodeFailed(n, now)
	s.ctrLinkEvents.Inc()
	s.instant("node_down", telemetry.Arg{K: "node", V: int(n)},
		telemetry.Arg{K: "name", V: s.Top.Node(n).Name})
	if s.obs != nil {
		s.obs.NodeEvent(now, n, false)
	}
	if s.Flight != nil {
		s.Flight.Note(int64(now), "node_down", s.Top.Node(n).Name, int64(n), 0)
	}
	for _, f := range s.active {
		for _, lk := range f.Path {
			link := s.Top.Link(lk)
			if link.From == n || link.To == n {
				s.markFlow(f)
				f.Stalled = true
				f.Rate = 0
				break
			}
		}
	}
	s.scheduleReroute(s.R.ConvergenceDelay)
}

// RecoverNode restores a crashed switch.
func (s *Sim) RecoverNode(n topo.NodeID) {
	s.beginMutate()
	defer s.endMutate()
	s.Top.SetNodeState(n, true)
	s.R.NoteNodeRecovered(n)
	s.ctrLinkEvents.Inc()
	s.instant("node_up", telemetry.Arg{K: "node", V: int(n)},
		telemetry.Arg{K: "name", V: s.Top.Node(n).Name})
	if s.obs != nil {
		s.obs.NodeEvent(s.Eng.Now(), n, true)
	}
	if s.Flight != nil {
		s.Flight.Note(int64(s.Eng.Now()), "node_up", s.Top.Node(n).Name, int64(n), 0)
	}
	s.scheduleReroute(200 * sim.Millisecond)
}

func pathHasLink(path []topo.LinkID, l topo.LinkID) bool {
	for _, p := range path {
		if p == l {
			return true
		}
	}
	return false
}

// scheduleReroute arms a single pending reroute pass after delay (the BGP /
// host-route convergence time). Multiple triggers collapse into the
// earliest pass; flows still stalled afterwards wait for the next topology
// transition.
func (s *Sim) scheduleReroute(delay sim.Time) {
	if s.rerouteScheduled {
		return
	}
	s.rerouteScheduled = true
	s.Eng.Schedule(delay, func() {
		s.rerouteScheduled = false
		s.reroutePass()
	})
}

// reroutePass re-paths every stalled flow with the now-converged view.
func (s *Sim) reroutePass() {
	s.beginMutate()
	defer s.endMutate()
	moved, still := s.repathStalled()
	s.ctrReroutes.Inc()
	s.instant("reroute",
		telemetry.Arg{K: "repathed", V: moved},
		telemetry.Arg{K: "still_stalled", V: still > 0})
	if s.obs != nil {
		s.obs.RerouteDone(s.Eng.Now(), moved, still)
	}
	if s.Flight != nil {
		s.Flight.Note(int64(s.Eng.Now()), "reroute", "", int64(moved), int64(still))
	}
	// If flows are still stuck and the fabric is still reconverging (e.g. a
	// second failure landed during the pass), try once more afterwards.
	if still > 0 {
		s.retryReroute()
	}
}

// repathStalled re-routes every stalled flow, returning how many moved and
// how many remain stalled.
func (s *Sim) repathStalled() (moved, still int) {
	for _, f := range s.active {
		if !f.Stalled {
			continue
		}
		f.Stalled = false
		if err := s.routeFlow(f); err != nil {
			f.Stalled = true
		}
		if f.Stalled {
			still++
		} else {
			moved++
		}
	}
	return moved, still
}

// retryReroute schedules one more pass a convergence-delay out, without
// self-perpetuating: if that pass leaves flows stalled too, they wait for
// the next explicit topology transition.
func (s *Sim) retryReroute() {
	if s.rerouteScheduled {
		return
	}
	s.rerouteScheduled = true
	s.Eng.Schedule(s.R.ConvergenceDelay, func() {
		s.rerouteScheduled = false
		s.beginMutate()
		defer s.endMutate()
		moved, still := s.repathStalled()
		if s.obs != nil {
			s.obs.RerouteDone(s.Eng.Now(), moved, still)
		}
		if s.Flight != nil {
			s.Flight.Note(int64(s.Eng.Now()), "reroute_retry", "", int64(moved), int64(still))
		}
	})
}

// flightLinkSubject names a cable for flight-recorder rows. Only called
// from guarded emission sites on (rare) topology transitions, so the
// string concatenation never touches a hot path.
func (s *Sim) flightLinkSubject(l topo.LinkID) string {
	lk := s.Top.Link(l)
	return s.Top.Node(lk.From).Name + "->" + s.Top.Node(lk.To).Name
}
