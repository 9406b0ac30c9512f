// Sharded event loop: conservative time windows over per-pod engines.
//
// The fabric model has no per-link propagation delay, so the classic
// conservative-PDES lookahead — "no shard can affect another sooner than
// the minimum cross-shard link latency" — degenerates to zero for
// arbitrary cross-shard traffic. What HPN's topology does guarantee is
// structural: pods only interact through the core tier (the plane-crossing
// points), so the simulation is partitioned hub-and-spoke. Each pod is a
// shard with its own Engine (heap + virtual clock); everything that spans
// pods — core links, cross-pod flows, the cross-pod phase of a collective
// — lives in one global domain whose engine only runs while every shard is
// quiescent. Windows are then derived, not configured: each shard simply
// runs up to the next global event, and direct shard-to-shard posts are
// forbidden (the fabric's true cross-shard lookahead is zero).
//
// Cross-domain interaction goes through per-sender mailboxes drained at
// window barriers in (sender domain ID, send sequence) order. Shards of a
// window run one after another in domain order on the calling goroutine;
// the mailboxes keep a shard's effects on other domains invisible until
// the barrier, so that order never shows in the results.
package sim

import (
	"fmt"

	"hpn/internal/prof"
)

// GlobalDomain is the domain ID of the hub: the engine that owns all
// cross-shard state and runs exclusively while shards are paused.
const GlobalDomain = 0

// post is one cross-domain message: run fn on the target domain's engine
// at virtual time at (clamped to the receiver's progress if the receiver's
// window already passed at — see Post).
type post struct {
	to int
	at Time
	fn func()
}

// Sharded coordinates one global engine plus K shard engines over
// conservative time windows. Construct with NewSharded; drive with Run.
type Sharded struct {
	engines []*Engine // index 0 = global domain, 1..K = shards

	// outbox[d] collects domain d's outgoing posts during a window. Each
	// slice is written only by domain d's events and drained only at
	// barriers, so the merge order is deterministic by construction (sender
	// ID, then append order, which is the sender's own event order).
	outbox [][]post

	phWindow   *prof.Phase // sim/window_sync: one Begin/End per shard window
	phExchange *prof.Phase // sim/mailbox_exchange: one Begin/End per barrier drain

	// Windows counts shard windows executed; Exchanged counts cross-domain
	// posts delivered. Both are pure functions of the simulated run (window
	// edges depend only on event times).
	Windows   int
	Exchanged int
}

// NewSharded builds a coordinator over the given global engine and shard
// engines. Domain IDs are GlobalDomain (0) for global and 1..len(shards)
// for the shards, in slice order.
func NewSharded(global *Engine, shards []*Engine) *Sharded {
	if global == nil {
		panic("sim: sharded coordinator needs a global engine")
	}
	engines := make([]*Engine, 0, len(shards)+1)
	engines = append(engines, global)
	engines = append(engines, shards...)
	return &Sharded{
		engines: engines,
		outbox:  make([][]post, len(engines)),
	}
}

// Shards returns the number of shard domains (excluding the global one).
func (s *Sharded) Shards() int { return len(s.engines) - 1 }

// Engine returns the engine of domain id (GlobalDomain or 1..Shards()).
func (s *Sharded) Engine(id int) *Engine { return s.engines[id] }

// SetProfiler registers the coordinator's phases. Nil-safe.
func (s *Sharded) SetProfiler(p *prof.Profiler) {
	s.phWindow = p.Phase("sim/window_sync", "shard windows executed (wall covers every shard's run in the window)")
	s.phExchange = p.Phase("sim/mailbox_exchange", "window-barrier mailbox drains (count via Add: posts delivered)")
}

// Post sends fn to domain `to`, to run at the sender's current time plus
// delay. It must be called from code executing on domain `from` (the
// sender's engine), which makes the append single-writer. Direct
// shard-to-shard posts panic: cross-shard interaction must be routed
// through the global domain, which never runs concurrently with a shard.
// Delivery waits for the next barrier, so a delivery time inside the
// receiver's already-executed window is clamped forward to the receiver's
// clock (deterministically: window edges and shard progress depend only on
// event times).
func (s *Sharded) Post(from int, delay Time, to int, fn func()) {
	if to < 0 || to >= len(s.engines) || from < 0 || from >= len(s.engines) {
		panic(fmt.Sprintf("sim: post from domain %d to domain %d out of range", from, to))
	}
	if delay < 0 {
		delay = 0
	}
	if from != GlobalDomain && to != GlobalDomain && from != to {
		panic(fmt.Sprintf(
			"sim: direct shard %d->%d post is forbidden at lookahead 0; route it through the global domain", from, to))
	}
	s.outbox[from] = append(s.outbox[from], post{to: to, at: s.engines[from].Now() + delay, fn: fn})
}

// exchange drains every outbox in (sender domain ID, send order) order,
// scheduling each post on its target engine as a foreground event. The
// delivery time is clamped to the receiver's clock: the receiver may have
// executed past the nominal time inside the same window, and scheduling in
// its past would reorder causality. Returns the number of posts delivered.
func (s *Sharded) exchange() int {
	delivered := 0
	tk := s.phExchange.Begin()
	for from := range s.outbox {
		box := s.outbox[from]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			p := box[i]
			target := s.engines[p.to]
			at := p.at
			if now := target.Now(); at < now {
				at = now
			}
			target.ScheduleAt(at, p.fn)
			box[i] = post{}
		}
		s.outbox[from] = box[:0]
		delivered += len(box)
	}
	s.phExchange.End(tk)
	s.phExchange.Add(int64(delivered))
	s.Exchanged += delivered
	return delivered
}

// nextFire returns the time of the next event that will actually fire on
// e: with no foreground work an engine fires nothing (daemons alone never
// run), so only engines with PendingWork contribute to window edges.
func nextFire(e *Engine) (Time, bool) {
	if e.PendingWork() == 0 {
		return 0, false
	}
	return e.NextAt()
}

// Run advances all domains in lockstep until no domain has foreground
// work and no posts are in flight. Each round either (a) runs the global
// domain exclusively up to the earliest shard event — shards are quiescent,
// so cross-shard state has exactly one owner — or (b) runs every shard
// with work through the window ending at the next global event. Ties go
// to the global domain.
// Window edges depend only on event times, and mailbox merges are ordered
// by (sender, send seq).
func (s *Sharded) Run() {
	for {
		s.exchange()
		gNext, gHas := nextFire(s.engines[GlobalDomain])
		minShard, sHas := MaxTime, false
		for _, sh := range s.engines[1:] {
			if t, ok := nextFire(sh); ok && t < minShard {
				minShard, sHas = t, true
			}
		}
		switch {
		case !gHas && !sHas:
			return
		case gHas && (!sHas || gNext <= minShard):
			cap := minShard
			if !sHas {
				cap = MaxTime
			}
			s.engines[GlobalDomain].RunCapped(cap)
		default:
			w := gNext
			if !gHas {
				w = MaxTime
			}
			s.window(w)
		}
	}
}

// window executes one conservative window: every shard with a fireable
// event at or before w runs RunCapped(w), in domain order. Shards touch
// disjoint engines and (by the hub-and-spoke contract) disjoint simulator
// state, so results are not merged here at all — cross-domain effects
// travel exclusively through the mailboxes drained by exchange.
func (s *Sharded) window(w Time) {
	tk := s.phWindow.Begin()
	for _, sh := range s.engines[1:] {
		if t, ok := nextFire(sh); ok && t <= w {
			sh.RunCapped(w)
		}
	}
	s.Windows++
	s.phWindow.End(tk)
}
