// Package obsnil is an hpnlint fixture: the nilguard rule must flag
// netsim.Observer.Observe calls without a nil guard, accept both guard
// shapes (enclosing if and early return), and ignore calls on concrete
// implementations and on unrelated interfaces with an identical method.
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
	l.obs.Observe(netsim.Event{Kind: netsim.LinkDown, At: now, Link: lk}) // want:nilguard "nil-observer guard"
}

func (l *layer) unguardedDone(now sim.Time, f *netsim.Flow) {
	l.obs.Observe(netsim.Event{Kind: netsim.FlowDone, At: now, Flow: f}) // want:nilguard "nil-observer guard"
}

func (l *layer) enclosingIf(now sim.Time, n topo.NodeID) {
	if l.obs != nil {
		l.obs.Observe(netsim.Event{Kind: netsim.NodeUp, At: now, Node: n})
	}
}

func (l *layer) enclosingIfConjunction(now sim.Time, moved int, on bool) {
	if on && l.obs != nil {
		l.obs.Observe(netsim.Event{Kind: netsim.Reroute, At: now, Repathed: moved})
	}
}

func (l *layer) earlyReturn(now sim.Time, f *netsim.Flow, hops []route.HopDecision) {
	if l.obs == nil {
		return
	}
	l.obs.Observe(netsim.Event{Kind: netsim.FlowRouted, At: now, Flow: f, Hops: hops})
}

// earlyReturnOuterBlock: the guard hoisted above the loop covers every
// emission in the body.
func (l *layer) earlyReturnOuterBlock(now sim.Time, links []topo.LinkID) {
	if l.obs == nil {
		return
	}
	for _, lk := range links {
		l.obs.Observe(netsim.Event{Kind: netsim.LinkUp, At: now, Link: lk})
	}
}

// wrongGuard guards a different expression: still a finding.
func (l *layer) wrongGuard(other netsim.Observer, now sim.Time, lk topo.LinkID) {
	if other != nil {
		l.obs.Observe(netsim.Event{Kind: netsim.LinkDown, At: now, Link: lk}) // want:nilguard "nil-observer guard"
	}
}

// concreteImpl is a concrete Observer; calling its method directly (the
// way health.Monitor's own tests drive detectors) is not dynamic dispatch
// through a possibly-nil interface and stays clean.
type concreteImpl struct{}

func (concreteImpl) Observe(e netsim.Event) {}

func callConcrete(now sim.Time, lk topo.LinkID) {
	var c concreteImpl
	c.Observe(netsim.Event{Kind: netsim.LinkUp, At: now, Link: lk})
}

// otherIface has the same method as netsim.Observer but is a different
// interface: not the rule's business.
type otherIface interface {
	Observe(e netsim.Event)
}

func callOther(o otherIface, now sim.Time, lk topo.LinkID) {
	o.Observe(netsim.Event{Kind: netsim.LinkDown, At: now, Link: lk})
}

func allowed(l *layer, now sim.Time, f *netsim.Flow) {
	l.obs.Observe(netsim.Event{Kind: netsim.FlowDone, At: now, Flow: f}) //hpnlint:allow nilguard -- fixture: caller guarantees a live observer
}
