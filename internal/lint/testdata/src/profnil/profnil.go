// Package profnil is an hpnlint fixture: the nilguard rule must flag
// flight-recorder emission calls (Note/Mark) without a nil guard, accept
// both guard shapes (enclosing if and early return), follow the
// obligation through helpers that emit on a flight parameter, and leave
// the nil-safe Phase/Profiler methods alone.
package profnil

import "hpn/internal/prof"

type engine struct {
	fl *prof.Flight
	p  *prof.Profiler
}

func (e *engine) unguardedNote(now int64) {
	e.fl.Note(now, "flows_done", "", 7, 0) // want:nilguard "nil-recorder guard"
}

func (e *engine) unguardedMark(now int64) {
	e.fl.Mark(now, "stall:seg01") // want:nilguard "nil-recorder guard"
}

func (e *engine) enclosingIf(now int64) {
	if e.fl != nil {
		e.fl.Note(now, "link_down", "t0->a1", 3, 0)
	}
}

func (e *engine) enclosingIfConjunction(now int64, on bool) {
	if on && e.fl != nil {
		e.fl.Mark(now, "incident")
	}
}

func (e *engine) earlyReturn(now int64) {
	if e.fl == nil {
		return
	}
	e.fl.Note(now, "reroute", "", 5, 1)
}

// earlyReturnOuterBlock: the guard hoisted above the loop covers every
// emission in the body.
func (e *engine) earlyReturnOuterBlock(now int64, ids []int64) {
	if e.fl == nil {
		return
	}
	for _, id := range ids {
		e.fl.Note(now, "flows_done", "", id, 0)
	}
}

// wrongGuard guards a different expression: still a finding.
func (e *engine) wrongGuard(other *prof.Flight, now int64) {
	if other != nil {
		e.fl.Note(now, "flows_done", "", 1, 0) // want:nilguard "nil-recorder guard"
	}
}

// phaseCallsAreClean: Phase and Profiler methods are nil-safe AND take no
// call-site-constructed payloads, so unguarded use is the intended shape —
// not the rule's business.
func (e *engine) phaseCallsAreClean() {
	ph := e.p.Phase("fixture/phase", "a no-op phase")
	tk := ph.Begin()
	ph.Add(3)
	ph.End(tk)
}

// noteVia emits on a flight parameter unguarded: the emission itself is a
// finding, and the guard obligation escapes to callers.
func noteVia(fl *prof.Flight, now int64) {
	fl.Note(now, "flows_done", "", 1, 0) // want:nilguard "nil-recorder guard"
}

func (e *engine) callsHelperUnguarded(now int64) {
	noteVia(e.fl, now) // want:nilguard "possibly-nil flight recorder"
}

func (e *engine) callsHelperGuarded(now int64) {
	if e.fl != nil {
		noteVia(e.fl, now)
	}
}

// freshRecorderIsClean: a freshly constructed recorder cannot be nil, so
// passing it to an emitting helper needs no guard.
func freshRecorderIsClean(now int64) {
	noteVia(prof.NewFlight(8), now)
}

func (e *engine) allowed(now int64) {
	e.fl.Mark(now, "drill") //hpnlint:allow nilguard -- fixture: caller guarantees a live recorder
}
