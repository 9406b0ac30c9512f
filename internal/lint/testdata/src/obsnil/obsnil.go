// Package obsnil is an hpnlint fixture: the nilguard rule must flag
// netsim.Observer callback calls without a nil guard, accept both guard
// shapes (enclosing if and early return), and ignore calls on concrete
// implementations and on unrelated interfaces with identical method names.
package obsnil

import (
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

type layer struct {
	obs netsim.Observer
}

func (l *layer) unguardedLink(now sim.Time, lk topo.LinkID) {
	l.obs.LinkEvent(now, lk, false) // want:nilguard "nil-observer guard"
}

func (l *layer) unguardedDone(now sim.Time, f *netsim.Flow) {
	l.obs.FlowDone(now, f) // want:nilguard "nil-observer guard"
}

func (l *layer) enclosingIf(now sim.Time, n topo.NodeID) {
	if l.obs != nil {
		l.obs.NodeEvent(now, n, true)
	}
}

func (l *layer) enclosingIfConjunction(now sim.Time, moved int, on bool) {
	if on && l.obs != nil {
		l.obs.RerouteDone(now, moved, 0)
	}
}

func (l *layer) earlyReturn(now sim.Time, f *netsim.Flow, hops []route.HopDecision) {
	if l.obs == nil {
		return
	}
	l.obs.FlowRouted(now, f, hops)
}

// earlyReturnOuterBlock: the guard hoisted above the loop covers every
// emission in the body.
func (l *layer) earlyReturnOuterBlock(now sim.Time, links []topo.LinkID) {
	if l.obs == nil {
		return
	}
	for _, lk := range links {
		l.obs.LinkEvent(now, lk, true)
	}
}

// wrongGuard guards a different expression: still a finding.
func (l *layer) wrongGuard(other netsim.Observer, now sim.Time, lk topo.LinkID) {
	if other != nil {
		l.obs.LinkEvent(now, lk, false) // want:nilguard "nil-observer guard"
	}
}

// concreteImpl is a concrete Observer; calling its methods directly (the
// way health.Monitor's own tests drive detectors) is not dynamic dispatch
// through a possibly-nil interface and stays clean.
type concreteImpl struct{}

func (concreteImpl) LinkEvent(now sim.Time, l topo.LinkID, up bool)                 {}
func (concreteImpl) NodeEvent(now sim.Time, n topo.NodeID, up bool)                 {}
func (concreteImpl) RerouteDone(now sim.Time, repathed, stillStalled int)           {}
func (concreteImpl) FlowRouted(now sim.Time, f *netsim.Flow, h []route.HopDecision) {}
func (concreteImpl) FlowDone(now sim.Time, f *netsim.Flow)                          {}

func callConcrete(now sim.Time, lk topo.LinkID) {
	var c concreteImpl
	c.LinkEvent(now, lk, true)
}

// otherIface shares a method name with netsim.Observer but is a different
// interface: not the rule's business.
type otherIface interface {
	LinkEvent(now sim.Time, l topo.LinkID, up bool)
}

func callOther(o otherIface, now sim.Time, lk topo.LinkID) {
	o.LinkEvent(now, lk, false)
}

func allowed(l *layer, now sim.Time, f *netsim.Flow) {
	l.obs.FlowDone(now, f) //hpnlint:allow nilguard -- fixture: caller guarantees a live observer
}
