// Package memo implements iteration memoization with fast-forward replay:
// the optimization that lets a steady-state training run simulate thousands
// of iterations for the cost of the first few.
//
// LLM training traffic is brutally periodic — the paper's premise: every
// iteration launches the same collectives over the same connections on the
// same fabric. Once one iteration has been simulated from a given fabric
// state, re-simulating the next identical one recomputes exactly the same
// flow allocations, completions and telemetry, just shifted in time. The
// recorder exploits that: it fingerprints the simulator state at each
// iteration boundary, records the full effect of one window of simulation
// (trace events, flow-log and in-band records, flow events delivered to
// the other subscribers, metric movement, engine clock/sequence
// consumption), and on a fingerprint hit replays that recorded window —
// re-stamped to the current time, flow-ID and sequence cursors — instead
// of simulating it, then fast-forwards the engine clock past it. A replayed run's artifacts are byte-identical to a
// re-simulated run's.
//
// Safety comes from three layers:
//
//   - The fingerprint (netsim.Sim.StateHash64 mixed with the workload's
//     schedule fingerprint) covers everything the window's outcome depends
//     on: per-link usability, the sport cursor, the active-flow multiset,
//     in-band queue residuals and the integration-gap back to the last
//     fluid advance. Any drift means a different key, which means a miss.
//   - Recording validity guards discard windows in which anything happened
//     that replay could not reproduce: an engine event armed or fired
//     mid-window, the sport cursor moving, flows still active at either
//     boundary.
//   - The recorder subscribes to the fabric events; any link or node
//     transition or reroute — anything that changes fabric behavior —
//     drops the whole cache and aborts any recording in progress. The
//     next iteration re-simulates and re-warms.
//
// The one part of a window that is never replayed from the cache is the
// trainer's own per-iteration bookkeeping (the "live section", bracketed
// by BeginLive/EndLive): its metrics and trace output vary per iteration
// (iteration numbers, cumulative counters), so replay re-executes it.
package memo

import (
	"hpn/internal/hashing"
	"hpn/internal/inband"
	"hpn/internal/netsim"
	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// maxWindows caps the fingerprint cache. Steady-state training needs one
// or two windows; the cap only bounds pathological workloads that never
// repeat (each iteration would otherwise leak a full recording).
const maxWindows = 512

// Hasher is the FNV-1a style mixer every memo fingerprint is built with.
// Callers fold their own state in with Mix and combine sub-fingerprints
// (the workload's schedule hash, netsim's state hash) the same way.
type Hasher struct{ h uint64 }

// NewHasher returns a hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: 14695981039346656037} }

// Mix folds one word into the hash.
func (h *Hasher) Mix(v uint64) {
	h.h ^= v
	h.h *= 1099511628211
}

// MixString folds a string in byte-wise.
func (h *Hasher) MixString(s string) {
	for i := 0; i < len(s); i++ {
		h.Mix(uint64(s[i]))
	}
}

// Sum returns the current hash value.
func (h *Hasher) Sum() uint64 { return h.h }

// LiveMetricsOwner is implemented by subscribers (health.Monitor) that
// increment registry counters from inside Observe. Replay re-feeds the
// flow events, so the increments happen live; the recorder excludes the
// named counters from the recorded metrics delta to avoid double-counting
// them.
type LiveMetricsOwner interface {
	LiveMetricNames() []string
}

// traceEvent is one captured trace emission, stored with record-time
// absolute values; replay shifts ts by the window's time delta and the
// "seq"/"id"/"flow" args by the sequence and flow-ID deltas.
type traceEvent struct {
	ph        byte
	ts, dur   int64
	cat, name string
	tid       int
	args      []telemetry.Arg
}

// flowSnap is the part of a flow's state the subscribers read, captured
// by value so replay can re-feed events without the original
// *netsim.Flow. Path is not captured (no subscriber reads it after
// routing; the hop decisions are recorded separately).
type flowSnap struct {
	id       int64
	src, dst route.Endpoint
	tuple    hashing.FiveTuple
	bits     float64
	port     int
	stalled  bool
	started  sim.Time
	done     sim.Time
}

// obsEvent is one captured FlowRouted or FlowDone event.
type obsEvent struct {
	kind netsim.EventKind
	at   sim.Time
	flow flowSnap
	hops []route.HopDecision
}

// Window is one recorded iteration: everything needed to reproduce its
// effects at a later, shifted position in the run.
type Window struct {
	baseT   sim.Time
	baseID  int64
	baseSeq uint64

	// dur is the window length; liveAt is the offset of the live section
	// (the trainer's iteration-completion bookkeeping, re-executed on
	// replay with the recorded comm payload).
	dur    sim.Time
	liveAt sim.Time
	comm   float64

	seqDelta, procDelta uint64
	idDelta             int64

	// part1/obs1/flows1/ib1 cover [window start, live section); the *2
	// halves cover (live section, window end]. The live section itself is
	// excluded — replay re-executes it and it re-emits its own output.
	part1, part2   []traceEvent
	obs1, obs2     []obsEvent
	flows1, flows2 []netsim.FlowRecord
	ib1, ib2       []inband.Record

	statFlows                   int64
	statBits, statAgg, statCore float64
	metrics                     *telemetry.MetricsDelta
	residual                    *netsim.InbandResidual
	lastAdvOffset               sim.Time
}

// Dur returns the window's virtual-time length.
func (w *Window) Dur() sim.Time { return w.dur }

// recording is an in-progress window capture.
type recording struct {
	fp       uint64
	baseT    sim.Time
	baseID   int64
	baseSeq  uint64
	baseProc uint64
	sport    uint16

	// Validity guards: the engine's pending-event population must be
	// untouched over the window (nothing armed, nothing external fired).
	beginPending int
	beginNextAt  sim.Time
	beginNextOK  bool

	flowMarkA, flowMarkB1, flowMarkB2 int
	ibMarkA, ibMarkB1, ibMarkB2       int

	statFlows                   int64
	statBits, statAgg, statCore float64

	snapA, snapB1, snapB2 *telemetry.MetricsSnapshot
	d1                    *telemetry.MetricsDelta

	liveSeen bool
	liveAt   sim.Time
	comm     float64

	part1, part2 []traceEvent
	obs1, obs2   []obsEvent
}

// Recorder is the memoization engine: a fabric-event subscriber plus a
// trace-capture hook on a netsim.Sim. The workload drives it through
// BeginRecord/BeginLive/EndLive/FinalizeRecord around each iteration and
// Lookup/Replay at iteration boundaries.
type Recorder struct {
	net *netsim.Sim
	eng *sim.Engine

	cache map[uint64]*Window

	rec       *recording
	suspended bool

	hits, misses, blocked, invalidations, replayed int64

	ctrHits, ctrMisses, ctrBlocked, ctrInvalidations, ctrReplayed *telemetry.Counter

	// Profiler phases (nil when the simulator has no profiler attached).
	// lookup/replay are timed; fast_forward is count-only — the jump itself
	// is a handful of field writes, not worth a time.Now pair.
	phLookup, phReplay, phFF *prof.Phase
}

// Stats is a point-in-time summary of recorder activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Blocked       int64
	Invalidations int64
	Replayed      int64
	Cached        int
}

// Attach subscribes a recorder to the simulator's fabric events, installs
// the trace-capture hook, and registers memo counters when the simulator
// carries a registry. Other subscribers (health monitoring) may attach
// before or after it: replay re-feeds every one of them.
func Attach(s *netsim.Sim) *Recorder {
	r := &Recorder{
		net:   s,
		eng:   s.Eng,
		cache: map[uint64]*Window{},
	}
	s.Subscribe(r)
	if s.Trace != nil {
		s.Trace.SetHook(r.capture)
	}
	if s.Reg != nil {
		p := s.MetricsPrefix
		r.ctrHits = s.Reg.Counter(p+"memo_hits_total", "iteration fingerprint cache hits (windows replayed)")
		r.ctrMisses = s.Reg.Counter(p+"memo_misses_total", "iteration fingerprint cache misses (windows simulated)")
		r.ctrBlocked = s.Reg.Counter(p+"memo_blocked_total", "cache hits not replayable (pending events or active flows)")
		r.ctrInvalidations = s.Reg.Counter(p+"memo_invalidations_total", "fabric events that dropped the memo cache")
		r.ctrReplayed = s.Reg.Counter(p+"memo_replayed_iterations_total", "iterations fast-forwarded from the cache")
		s.Reg.Gauge(p+"memo_cached_windows", "recorded iteration windows held in the cache",
			func() float64 { return float64(len(r.cache)) })
		// Stats as gauges alongside the counters: gauges stay out of the
		// recorder's own metrics snapshots (counters/histograms only), so
		// these views are replay-safe and cheap to read from dashboards.
		s.Reg.Gauge(p+"memo_hits", "live view of Stats.Hits (cache hits)",
			func() float64 { return float64(r.Stats().Hits) })
		s.Reg.Gauge(p+"memo_misses", "live view of Stats.Misses (cache misses)",
			func() float64 { return float64(r.Stats().Misses) })
		s.Reg.Gauge(p+"memo_invalidations", "live view of Stats.Invalidations (cache drops)",
			func() float64 { return float64(r.Stats().Invalidations) })
	}
	r.phLookup = s.Prof.Phase("memo/lookup", "fingerprint cache lookups (hit, miss or blocked)")
	r.phReplay = s.Prof.PhaseAlloc("memo/replay", "window replays: observer re-feed, trace re-emit, fast-forward")
	r.phFF = s.Prof.Phase("memo/fast_forward", "engine fast-forward jumps (count-only)")
	return r
}

// RecorderOf returns the recorder subscribed to the simulator, or nil.
func RecorderOf(s *netsim.Sim) *Recorder {
	for _, o := range s.Observers() {
		if r, ok := o.(*Recorder); ok {
			return r
		}
	}
	return nil
}

// Stats returns the recorder's activity counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Hits: r.hits, Misses: r.misses, Blocked: r.blocked,
		Invalidations: r.invalidations, Replayed: r.replayed,
		Cached: len(r.cache),
	}
}

// --- Fabric events: invalidation + flow-event capture -----------------

// Observe implements netsim.Observer. Any transition (link or node
// up/down, reroute pass) invalidates the cache: fabric behavior changed.
// FlowRouted and FlowDone are captured while recording, for replay to
// re-feed to the other subscribers.
func (r *Recorder) Observe(e netsim.Event) {
	switch e.Kind {
	case netsim.FlowRouted, netsim.FlowDone:
		if r.rec != nil && !r.suspended {
			r.recObs(obsEvent{kind: e.Kind, at: e.At, flow: snapFlow(e.Flow), hops: append([]route.HopDecision(nil), e.Hops...)})
		}
	default:
		r.invalidate()
	}
}

var _ netsim.Observer = (*Recorder)(nil)

func snapFlow(f *netsim.Flow) flowSnap {
	return flowSnap{
		id: f.ID, src: f.Src, dst: f.Dst, tuple: f.Tuple,
		bits: f.Bits, port: f.Port, stalled: f.Stalled,
		started: f.StartedAt, done: f.DoneAt,
	}
}

func (r *Recorder) recObs(e obsEvent) {
	if r.rec.liveSeen {
		r.rec.obs2 = append(r.rec.obs2, e)
	} else {
		r.rec.obs1 = append(r.rec.obs1, e)
	}
}

// invalidate drops every cached window and aborts any recording: the
// fabric just changed in a way no recorded window accounts for.
func (r *Recorder) invalidate() {
	r.invalidations++
	r.ctrInvalidations.Inc()
	if len(r.cache) > 0 {
		r.cache = map[uint64]*Window{}
	}
	r.rec = nil
	r.suspended = false
}

// capture is the trace hook: every live emission lands in the current
// recording (replayed emissions go through Tracer.Emit, which bypasses
// the hook, so a replay never re-captures itself).
func (r *Recorder) capture(ph byte, tsNS, durNS int64, cat, name string, tid int, args []telemetry.Arg) {
	if r.rec == nil || r.suspended {
		return
	}
	ev := traceEvent{ph: ph, ts: tsNS, dur: durNS, cat: cat, name: name, tid: tid}
	if len(args) > 0 {
		ev.args = append([]telemetry.Arg(nil), args...)
	}
	if r.rec.liveSeen {
		r.rec.part2 = append(r.rec.part2, ev)
	} else {
		r.rec.part1 = append(r.rec.part1, ev)
	}
}

// --- Recording ---------------------------------------------------------

// BeginRecord starts capturing the window keyed by fp. It declines (and
// records nothing) when the fingerprint is already cached, the cache is
// full, or flows are still active — a window must start from a drained
// fabric to be replayable.
func (r *Recorder) BeginRecord(fp uint64) {
	if r == nil {
		return
	}
	r.rec = nil
	r.suspended = false
	if _, ok := r.cache[fp]; ok || len(r.cache) >= maxWindows || r.net.ActiveFlows() != 0 {
		return
	}
	nextAt, nextOK := r.eng.NextAt()
	r.rec = &recording{
		fp:           fp,
		baseT:        r.eng.Now(),
		baseID:       r.net.NextFlowID(),
		baseSeq:      r.eng.Seq(),
		baseProc:     r.eng.Processed,
		sport:        r.net.SportCursor(),
		beginPending: r.eng.Pending(),
		beginNextAt:  nextAt,
		beginNextOK:  nextOK,
		flowMarkA:    r.net.FlowLogSize(),
		ibMarkA:      r.ibSize(),
		statFlows:    r.net.CompletedFlows,
		statBits:     r.net.CompletedBits,
		statAgg:      r.net.AggBits,
		statCore:     r.net.CoreBits,
		snapA:        r.net.Reg.SnapshotMetrics(),
	}
}

// BeginLive marks the start of the live section: the trainer's iteration
// bookkeeping, whose output varies per iteration and is therefore
// re-executed on replay rather than replayed from the recording. comm is
// the payload replay must hand back to the live function.
func (r *Recorder) BeginLive(now sim.Time, comm float64) {
	if r == nil || r.rec == nil {
		return
	}
	r.suspended = true
	r.rec.liveAt = now - r.rec.baseT
	r.rec.comm = comm
	r.rec.flowMarkB1 = r.net.FlowLogSize()
	r.rec.ibMarkB1 = r.ibSize()
	r.rec.snapB1 = r.net.Reg.SnapshotMetrics()
}

// EndLive closes the live section and resumes capture.
func (r *Recorder) EndLive() {
	if r == nil || r.rec == nil || !r.suspended {
		return
	}
	r.suspended = false
	r.rec.liveSeen = true
	r.rec.d1 = r.rec.snapB1.DeltaSince(r.rec.snapA)
	r.rec.snapB2 = r.net.Reg.SnapshotMetrics()
	r.rec.flowMarkB2 = r.net.FlowLogSize()
	r.rec.ibMarkB2 = r.ibSize()
}

// FinalizeRecord closes the window begun by BeginRecord and caches it if
// it is replayable. A window is discarded when no live section was seen
// (the iteration never completed), the sport cursor moved (auto-assigned
// ports are not periodic), flows are still active, or the engine's
// pending-event population changed over the window — the signature of a
// timer armed mid-window or an external (failure-injection) event firing
// inside it, neither of which replay can reproduce.
func (r *Recorder) FinalizeRecord() {
	if r == nil || r.rec == nil {
		return
	}
	rec := r.rec
	r.rec = nil
	r.suspended = false
	now := r.eng.Now()
	if !rec.liveSeen ||
		r.net.SportCursor() != rec.sport ||
		r.net.ActiveFlows() != 0 ||
		r.eng.Pending() != rec.beginPending ||
		(rec.beginNextOK && rec.beginNextAt < now) {
		return
	}
	snapC := r.net.Reg.SnapshotMetrics()
	metrics := telemetry.MergeDeltas(rec.d1, snapC.DeltaSince(rec.snapB2))
	metrics.Exclude(r.liveMetricNames())
	w := &Window{
		baseT:         rec.baseT,
		baseID:        rec.baseID,
		baseSeq:       rec.baseSeq,
		dur:           now - rec.baseT,
		liveAt:        rec.liveAt,
		comm:          rec.comm,
		seqDelta:      r.eng.Seq() - rec.baseSeq,
		procDelta:     r.eng.Processed - rec.baseProc,
		idDelta:       r.net.NextFlowID() - rec.baseID,
		part1:         rec.part1,
		part2:         rec.part2,
		obs1:          rec.obs1,
		obs2:          rec.obs2,
		flows1:        r.net.FlowLogRange(rec.flowMarkA, rec.flowMarkB1),
		flows2:        r.net.FlowLogRange(rec.flowMarkB2, r.net.FlowLogSize()),
		ib1:           r.ibRange(rec.ibMarkA, rec.ibMarkB1),
		ib2:           r.ibRange(rec.ibMarkB2, r.ibSize()),
		statFlows:     r.net.CompletedFlows - rec.statFlows,
		statBits:      r.net.CompletedBits - rec.statBits,
		statAgg:       r.net.AggBits - rec.statAgg,
		statCore:      r.net.CoreBits - rec.statCore,
		metrics:       metrics,
		residual:      r.net.CaptureInbandResidual(),
		lastAdvOffset: r.net.LastAdvance() - rec.baseT,
	}
	r.cache[rec.fp] = w
}

// liveMetricNames collects the subscriber-owned counter names (see
// LiveMetricsOwner).
func (r *Recorder) liveMetricNames() []string {
	var names []string
	for _, o := range r.net.Observers() {
		if lm, ok := o.(LiveMetricsOwner); ok {
			names = append(names, lm.LiveMetricNames()...)
		}
	}
	return names
}

func (r *Recorder) ibSize() int {
	if c := r.net.Inband(); c != nil {
		return len(c.Records())
	}
	return 0
}

func (r *Recorder) ibRange(from, to int) []inband.Record {
	c := r.net.Inband()
	if c == nil || from >= to {
		return nil
	}
	return append([]inband.Record(nil), c.Records()[from:to]...)
}

// --- Replay ------------------------------------------------------------

// Lookup returns the cached window for fp if it is replayable right now:
// no flows may be active, and no pending engine event may land inside (or
// exactly at the end of) the would-be window, since replay cannot
// interleave it. Non-replayable hits count as blocked, not misses.
func (r *Recorder) Lookup(fp uint64) *Window {
	if r == nil {
		return nil
	}
	defer r.phLookup.End(r.phLookup.Begin())
	w := r.cache[fp]
	if w == nil {
		r.misses++
		r.ctrMisses.Inc()
		return nil
	}
	if r.net.ActiveFlows() != 0 {
		r.blocked++
		r.ctrBlocked.Inc()
		return nil
	}
	if at, ok := r.eng.NextAt(); ok && at <= r.eng.Now()+w.dur {
		r.blocked++
		r.ctrBlocked.Inc()
		return nil
	}
	r.hits++
	r.ctrHits.Inc()
	return w
}

// Replay applies the recorded window at the current instant: it re-feeds
// the captured flow events to the other subscribers, re-emits the
// captured trace events and appends the flow-log/in-band records — all
// shifted to the current time, flow-ID and sequence cursors — runs liveFn
// for the live section, then fast-forwards the engine past the window and
// restores the simulator's exit-state (stats, metrics, in-band residual,
// integration cursor). The first half of the feed precedes liveFn so
// subscribers are current when the live section reads them.
func (r *Recorder) Replay(w *Window, liveFn func(now sim.Time, comm float64)) {
	defer r.phReplay.End(r.phReplay.Begin())
	t0 := r.eng.Now()
	dt := t0 - w.baseT
	did := r.net.NextFlowID() - w.baseID
	dseq := r.eng.Seq() - w.baseSeq
	r.replayed++
	r.ctrReplayed.Inc()
	r.feedObs(w.obs1, dt, did)
	r.emitTrace(w.part1, dt, did, dseq)
	r.net.AppendReplayedFlows(shiftFlows(w.flows1, dt, did))
	if c := r.net.Inband(); c != nil {
		c.AppendReplayed(shiftIB(w.ib1, dt, did))
	}
	if liveFn != nil {
		liveFn(t0+w.liveAt, w.comm)
	}
	r.feedObs(w.obs2, dt, did)
	r.emitTrace(w.part2, dt, did, dseq)
	r.net.AppendReplayedFlows(shiftFlows(w.flows2, dt, did))
	if c := r.net.Inband(); c != nil {
		c.AppendReplayed(shiftIB(w.ib2, dt, did))
	}
	r.phFF.Add(1)
	r.eng.FastForward(t0+w.dur, w.seqDelta, w.procDelta)
	r.net.AdvanceFlowIDs(w.idDelta)
	r.net.AddReplayedStats(w.statFlows, w.statBits, w.statAgg, w.statCore)
	r.net.Reg.ApplyMetricsDelta(w.metrics)
	r.net.RestoreInbandResidual(w.residual)
	r.net.RestoreLastAdvance(t0 + w.lastAdvOffset)
}

// feedObs re-feeds captured flow events, with shifted timestamps and
// flow snapshots, to every subscriber but the recorder itself (which is
// not recording during replay). With the recorder subscribed alone there
// is nobody to feed, and no flow is built.
func (r *Recorder) feedObs(evs []obsEvent, dt sim.Time, did int64) {
	subs := r.net.Observers()
	if len(subs) == 1 {
		return
	}
	for i := range evs {
		ev := &evs[i]
		e := netsim.Event{Kind: ev.kind, At: ev.at + dt, Hops: ev.hops, Flow: &netsim.Flow{
			ID: ev.flow.id + did, Src: ev.flow.src, Dst: ev.flow.dst, Tuple: ev.flow.tuple,
			Bits: ev.flow.bits, Port: ev.flow.port, Stalled: ev.flow.stalled,
			StartedAt: ev.flow.started + dt, DoneAt: ev.flow.done + dt,
		}}
		for _, o := range subs {
			if o != r {
				o.Observe(e) //hpnlint:allow nilguard -- Subscribe rejects nil, so no subscriber is nil
			}
		}
	}
}

// emitTrace re-emits captured trace events through the hook-bypassing
// Emit path. Only three argument keys carry run-position state and are
// shifted: "seq" (engine sequence numbers, uint64), and "id"/"flow"
// (flow IDs, int64). Everything else replays verbatim.
func (r *Recorder) emitTrace(evs []traceEvent, dt sim.Time, did int64, dseq uint64) {
	tr := r.net.Trace
	if tr == nil {
		return
	}
	for i := range evs {
		e := &evs[i]
		args := e.args
		if len(args) > 0 {
			args = append([]telemetry.Arg(nil), args...)
			for j := range args {
				switch v := args[j].V.(type) {
				case uint64:
					if args[j].K == "seq" {
						args[j].V = v + dseq
					}
				case int64:
					if args[j].K == "id" || args[j].K == "flow" {
						args[j].V = v + did
					}
				}
			}
		}
		tr.Emit(e.ph, e.ts+int64(dt), e.dur, e.cat, e.name, e.tid, args)
	}
}

func shiftFlows(recs []netsim.FlowRecord, dt sim.Time, did int64) []netsim.FlowRecord {
	if len(recs) == 0 {
		return nil
	}
	out := make([]netsim.FlowRecord, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].ID += did
		out[i].Start += dt
		out[i].End += dt
	}
	return out
}

func shiftIB(recs []inband.Record, dt sim.Time, did int64) []inband.Record {
	if len(recs) == 0 {
		return nil
	}
	out := make([]inband.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Flow += did
		out[i].EnterNS += int64(dt)
		out[i].ExitNS += int64(dt)
	}
	return out
}
