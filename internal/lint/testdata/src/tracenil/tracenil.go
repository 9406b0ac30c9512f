// Package tracenil is an hpnlint fixture: the nilguard rule must flag
// Tracer emission calls without a nil guard, accept both guard shapes
// (enclosing if and early return), and ignore non-emission methods and
// Registry.Counter.
package tracenil

import "hpn/internal/telemetry"

type layer struct {
	tr  *telemetry.Tracer
	reg *telemetry.Registry
}

func (l *layer) unguarded(ts int64) {
	l.tr.Instant(ts, "cat", "evt", 1) // want:nilguard "nil-tracer guard"
}

func (l *layer) unguardedCounter(ts int64) {
	l.tr.Counter(ts, "track", 1) // want:nilguard "nil-tracer guard"
}

func (l *layer) enclosingIf(ts int64) {
	if l.tr != nil {
		l.tr.Complete(ts, 10, "cat", "span", 1)
	}
}

func (l *layer) enclosingIfConjunction(ts int64, on bool) {
	if on && l.tr != nil {
		l.tr.Instant(ts, "cat", "evt", 1)
	}
}

func (l *layer) earlyReturn(ts int64) {
	if l.tr == nil {
		return
	}
	l.tr.Counter(ts, "track", 1)
}

func (l *layer) earlyReturnOuterBlock(ts int64) {
	if l.tr == nil {
		return
	}
	for i := 0; i < 3; i++ {
		l.tr.Counter(ts+int64(i), "track", 1)
	}
}

// wrongGuard guards a different expression: still a finding.
func (l *layer) wrongGuard(other *telemetry.Tracer, ts int64) {
	if other != nil {
		l.tr.Instant(ts, "cat", "evt", 1) // want:nilguard "nil-tracer guard"
	}
}

// registryCounterIsClean: Registry.Counter is a constructor, not an
// emission, and the Registry is nil-safe by contract.
func (l *layer) registryCounterIsClean() *telemetry.Counter {
	return l.reg.Counter("name", "help")
}

// metadataIsClean: NameThread is setup-time metadata, not hot-path
// emission.
func (l *layer) metadataIsClean() {
	l.tr.NameThread(1, "engine")
}

func (l *layer) allowed(ts int64) {
	l.tr.Instant(ts, "cat", "evt", 1) //hpnlint:allow nilguard -- fixture: caller guarantees a live tracer
}

// flushLoopUnguarded is the in-band flush shape gone wrong: one instant per
// drained flow generation, emitted inside the drain loop with no guard. A
// collector wired without a tracer must not panic on flush.
func (l *layer) flushLoopUnguarded(ts int64, flows []int64) {
	for i := range flows {
		l.tr.Instant(ts+int64(i), "inband", "path_flush", 6) // want:nilguard "nil-tracer guard"
	}
}

// flushLoopGuarded is the correct in-band flush: the guard hoisted above
// the drain loop covers every emission in the body.
func (l *layer) flushLoopGuarded(ts int64, flows []int64) {
	if l.tr == nil {
		return
	}
	for i := range flows {
		l.tr.Instant(ts+int64(i), "inband", "path_flush", 6)
	}
}

// flushPerRecordGuarded guards at the emission site itself — the shape the
// collector uses when only some records warrant a trace event.
func (l *layer) flushPerRecordGuarded(ts int64, flows []int64) {
	for i := range flows {
		if l.tr != nil {
			l.tr.Counter(ts+int64(i), "inband_records", float64(i))
		}
	}
}
