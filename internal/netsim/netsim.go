// Package netsim is a fluid (flow-level) discrete-event network simulator.
//
// Flows are modeled as fluid streams over fixed paths; link bandwidth is
// shared max-min fairly (progressive filling), the standard abstraction for
// fabric-scale studies. The simulator recomputes rates whenever the flow set
// or the topology changes and schedules the next flow completion as a
// discrete event. Near-simultaneous completions are batched within a small
// window to keep event counts proportional to communication rounds rather
// than to individual flows.
//
// Congestion is additionally summarized per link as a queue-pressure proxy:
// the integral of (offered demand - capacity)+ clamped to a per-port buffer,
// where a flow's offered demand is its fair share at its access link. RoCE
// PFC dynamics are not packet-simulated; the proxy preserves the relative
// queue buildups the paper's Figures 14 and 15c compare (see DESIGN.md).
package netsim

import (
	"fmt"

	"hpn/internal/hashing"
	"hpn/internal/inband"
	"hpn/internal/prof"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// Flow is one fluid stream between two NIC endpoints.
type Flow struct {
	ID    int64
	Src   route.Endpoint
	Dst   route.Endpoint
	Tuple hashing.FiveTuple

	// Bits is the total flow size; Remaining counts down to completion.
	Bits      float64
	Remaining float64

	// Rate is the current max-min allocation in bits/second (0 if stalled).
	Rate float64

	// Path is the current forwarding path (directed links).
	Path []topo.LinkID
	// Port is the source NIC port in use (the plane, under dual-plane).
	Port int

	// PinnedPort >= 0 requests a specific source port (RDMA connections
	// with pre-established disjoint paths pin their plane); -1 lets the
	// bond choose.
	PinnedPort int

	// Stalled marks a flow blackholed by a failure, awaiting reconvergence.
	Stalled bool
	// frozen and comp are allocator state (alloc.go), placed here to use
	// Stalled's padding: frozen is fill scratch owned by the filler of the
	// flow's component, comp that component (noComp when not placed).
	frozen bool
	comp   int32

	// OnComplete, if set, runs when the flow finishes. It may start new
	// flows.
	OnComplete func(now sim.Time, f *Flow)
	// After, if set, runs after OnComplete. The second slot lets a wrapper
	// layer (rdma connections doing WQE accounting) install one persistent
	// OnComplete per connection and pass the caller's per-send callback
	// through unwrapped, instead of allocating a fresh closure per flow.
	After func(now sim.Time)

	StartedAt sim.Time
	DoneAt    sim.Time

	index int // position in Sim.active; -1 once finished

	// ib holds the in-band telemetry state, allocated only under
	// Sim.EnableInband so the disabled case costs Flow a single nil
	// pointer.
	ib *flowInband
}

// flowInband is one flow's in-band path-telemetry state: the hash
// decisions behind the current path, per-hop bandwidth and queue-residency
// accumulators parallel to Path, and the generation bookkeeping (epoch
// counts reroutes, since stamps the generation's start).
type flowInband struct {
	hops    []route.HopDecision
	hopBits []float64
	hopQBS  []float64
	since   sim.Time
	epoch   int
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.index < 0 && !f.Stalled }

// Sim couples an engine, a topology and a router into a running network.
type Sim struct {
	Eng *sim.Engine
	Top *topo.Topology
	R   *route.Router

	// BatchWindow merges completions that fall within this span of the
	// earliest one; it trades a bounded (sub-window) error in individual
	// flow completion times for far fewer rate recomputations.
	BatchWindow sim.Time

	// PortBufferBytes caps the per-port queue proxy (switch buffer share).
	PortBufferBytes float64

	active []*Flow
	nextID int64
	sport  uint16

	// sharding/shard, when set (RestrictShard), scope this simulator to one
	// pod shard of a partitioned fabric: admission, state fingerprints and
	// therefore allocator components never leave the shard's link set.
	sharding *topo.Sharding
	shard    int

	lastAdvance  sim.Time
	completionEv *sim.Event
	mutating     int

	// probeByLink indexes probes by link for hot-path lookup (nil = not
	// probed); probeList holds the same probes in registration order. All
	// iteration goes through probeList so probe series and artifacts never
	// depend on Go map iteration order (hpnlint:maporder).
	probeByLink []*LinkProbe
	probeList   []*LinkProbe

	// ParallelFill caps the goroutines used to fill the dirty contention
	// components during a rate recomputation: 0 (the default) defers to
	// GOMAXPROCS, 1 forces serial filling. Component fills are
	// schedule-independent, so the allocation — and every derived artifact
	// — is byte-identical at any setting; see alloc.go.
	ParallelFill int
	// ParallelFillMinFlows is the dirty-region flow count below which
	// filling stays serial regardless of ParallelFill (0 = a built-in
	// default).
	ParallelFillMinFlows int

	// Allocator state; see alloc.go. Persistent across recomputes: the
	// components, each in-use link's component, next link in that
	// component's list, incidence list (in active order), offered demand
	// and usability at its last fill, the fabric state generation last
	// seen, and the dirty-component queue the mutations fill. Scratch
	// for rebuilding the dirty region, epoch-stamped to avoid O(links)
	// clearing: remaining capacity, share counts, union-find parents and
	// each root's new component.
	comps      []allocComp
	freeComps  []int32
	liveComps  int
	dirtyComps []int32
	linkComp   []int32
	linkNext   []topo.LinkID
	inc        [][]int32
	demand     []float64
	linkUp     []bool
	topoGen    uint64
	capRem     []float64
	nShare     []int32
	epoch      []uint32
	curEpoch   uint32
	touched    []topo.LinkID
	ufParent   []int32
	rootComp   []int32
	region     []*Flow
	rebuilt    []int32
	heaps      []linkHeap
	done       []*Flow // completionEvent harvest scratch

	rerouteScheduled bool

	// obs receives streaming fabric events (nil = disabled; see
	// observer.go). obsHops is routing scratch for FlowRouted when in-band
	// telemetry is off.
	obs     Observer
	obsHops []route.HopDecision

	flowLog    []FlowRecord
	flowLogCap int

	// In-band path telemetry (nil = disabled; see EnableInband). The ib*
	// arrays mirror the allocator scratch: per-link offered demand,
	// capacity, queue proxy, per-step queue integral, and the live-link
	// worklist with its membership mask.
	inband    *inband.Collector
	ibDemand  []float64
	ibCap     []float64
	ibQueue   []float64
	ibQStep   []float64
	ibLive    []topo.LinkID
	ibLiveSet []bool

	// Telemetry surfaces; nil (the default) disables each with one nil
	// check on the hot paths. See AttachTelemetry.
	Trace         *telemetry.Tracer
	Reg           *telemetry.Registry
	MetricsPrefix string
	ctrFlows      *telemetry.Counter
	ctrRecomputes *telemetry.Counter
	ctrReroutes   *telemetry.Counter
	ctrLinkEvents *telemetry.Counter
	histFCT       *telemetry.Histogram

	// Engine self-observability (nil = disabled; see AttachProfiler). Prof
	// and Flight are exported so memo and health reach the shared instances
	// through the Sim they already hold. Flight.Note sites follow the
	// tracenil/obsnil guard discipline: arguments are built at the call
	// site, so the site sits behind `if s.Flight != nil`.
	Prof        *prof.Profiler
	Flight      *prof.Flight
	phRecompute *prof.Phase
	phDecompose *prof.Phase
	phFill      *prof.Phase
	phMergeWait *prof.Phase
	phHeapOps   *prof.Phase
	// Count-only allocator shape: components alive vs rebuilt and refilled
	// per recompute.
	phComponents *prof.Phase
	phDirtyComps *prof.Phase

	// Stats
	CompletedFlows int64
	CompletedBits  float64
	// AggBits / CoreBits count completed-flow bits whose path transited an
	// Aggregation / Core switch — the cross-segment and cross-pod traffic
	// the paper measures on Aggregation switches (Figure 15b).
	AggBits  float64
	CoreBits float64
}

// New returns a simulator over the given topology. The router is created
// internally with default convergence delay; adjust via s.R.
func New(eng *sim.Engine, top *topo.Topology) *Sim {
	s := &Sim{
		Eng:             eng,
		Top:             top,
		R:               route.New(top),
		BatchWindow:     10 * sim.Microsecond,
		PortBufferBytes: 8 << 20,
		sport:           49152,
		probeByLink:     make([]*LinkProbe, len(top.Links)),
		capRem:          make([]float64, len(top.Links)),
		nShare:          make([]int32, len(top.Links)),
		demand:          make([]float64, len(top.Links)),
		epoch:           make([]uint32, len(top.Links)),
		inc:             make([][]int32, len(top.Links)),
		ufParent:        make([]int32, len(top.Links)),
		rootComp:        make([]int32, len(top.Links)),
		linkComp:        make([]int32, len(top.Links)),
		linkNext:        make([]topo.LinkID, len(top.Links)),
		linkUp:          make([]bool, len(top.Links)),
		topoGen:         top.StateGen(),
	}
	for i := range s.linkComp {
		s.linkComp[i] = noComp
	}
	return s
}

// RestrictShard scopes the simulator to one shard of a partitioned fabric:
// only flows between hosts of that shard are admitted, and the memo state
// fingerprint covers only the shard's own links — so another shard's link
// transitions neither invalidate this shard's cached windows nor race with
// its fingerprint reads while windows execute in parallel. Contention is
// then structurally shard-local: every allocator component this Sim can
// form lives entirely inside the shard's link set, which is exactly the
// "recompute scoped to non-spanning components" guarantee; anything that
// would span shards must instead be escalated to an unrestricted Sim on
// the global domain, whose recompute covers all links. Must be called
// before any flow starts.
func (s *Sim) RestrictShard(sh *topo.Sharding, shard int) {
	if shard < 1 || shard > sh.N {
		panic(fmt.Sprintf("netsim: shard %d outside 1..%d", shard, sh.N))
	}
	if len(s.active) > 0 || s.CompletedFlows > 0 {
		panic("netsim: RestrictShard after flows started")
	}
	s.sharding = sh
	s.shard = shard
}

// SetFlowIDBase offsets the flow-ID counter so each shard's simulator
// mints IDs from a disjoint range (shard-scoped artifacts stay globally
// unambiguous). Must be called before any flow starts.
func (s *Sim) SetFlowIDBase(base int64) {
	if s.nextID != 0 {
		panic("netsim: SetFlowIDBase after flows started")
	}
	s.nextID = base
}

// FlowOpts customizes StartFlow.
type FlowOpts struct {
	// SrcPort pins the source NIC port (plane); -1 lets the bond hash pick.
	SrcPort int
	// Sport sets the transport source port of the 5-tuple; 0 auto-assigns.
	// Path selection (Appendix B) sweeps this to steer ECMP.
	Sport uint16
	// OnComplete runs when the flow finishes.
	OnComplete func(now sim.Time, f *Flow)
	// After runs after OnComplete; see Flow.After.
	After func(now sim.Time)
}

// StartFlow injects a new flow of the given size (bytes) and returns it.
// The flow may start stalled if the fabric currently blackholes it.
func (s *Sim) StartFlow(src, dst route.Endpoint, bytes float64, opt FlowOpts) (*Flow, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("netsim: non-positive flow size %v", bytes)
	}
	if s.sharding != nil {
		// Shard-scoped admission: a flow with an endpoint outside the shard
		// would route over links another shard (or the global domain) owns.
		// Valley-free routing never exits the pod for intra-pod pairs, so
		// checking endpoints is exact.
		if got := s.sharding.ShardOfHost(s.Top, src.Host); got != s.shard {
			return nil, fmt.Errorf("netsim: src host %d is in shard %d, not this simulator's shard %d; cross-shard flows must run on the global domain", src.Host, got, s.shard)
		}
		if got := s.sharding.ShardOfHost(s.Top, dst.Host); got != s.shard {
			return nil, fmt.Errorf("netsim: dst host %d is in shard %d, not this simulator's shard %d; cross-shard flows must run on the global domain", dst.Host, got, s.shard)
		}
	}
	s.beginMutate()
	defer s.endMutate()

	sport := opt.Sport
	if sport == 0 {
		s.sport++
		if s.sport < 49152 {
			s.sport = 49152
		}
		sport = s.sport
	}
	tuple := hashing.FiveTuple{
		SrcAddr: src.Addr(), DstAddr: dst.Addr(),
		SrcPort: sport, DstPort: 4791, Proto: 17,
	}
	f := &Flow{
		ID: s.nextID, Src: src, Dst: dst, Tuple: tuple,
		Bits: bytes * 8, Remaining: bytes * 8,
		PinnedPort: -1, OnComplete: opt.OnComplete, After: opt.After,
		StartedAt: s.Eng.Now(), index: -1, comp: noComp,
	}
	s.nextID++
	if opt.SrcPort >= 0 {
		f.PinnedPort = opt.SrcPort
	}
	if err := s.routeFlow(f); err != nil {
		return nil, err
	}
	if s.sharding != nil {
		// Invariant, not admission (that was the endpoint check above): an
		// in-scope pair routed over an out-of-scope link means the routing
		// layer violated the pod boundary — escalate loudly.
		for _, l := range f.Path {
			if s.sharding.ShardOfLink(l) != s.shard {
				panic(fmt.Sprintf("netsim: shard %d flow %d routed over link %d owned by domain %d",
					s.shard, f.ID, l, s.sharding.ShardOfLink(l)))
			}
		}
	}
	f.index = len(s.active)
	s.active = append(s.active, f)
	if s.Trace != nil {
		// Guarded here, not just inside instant: building the Arg list
		// boxes three values per started flow, a measurable cost on the
		// tracing-off hot path.
		s.instant("flow_start",
			telemetry.Arg{K: "id", V: f.ID},
			telemetry.Arg{K: "bytes", V: bytes},
			telemetry.Arg{K: "stalled", V: f.Stalled})
	}
	if f.Stalled {
		s.scheduleReroute(s.R.ConvergenceDelay)
	}
	return f, nil
}

// routeFlow (re)computes a flow's port and path from current fabric state.
// On blackhole or no-port it marks the flow stalled with the best-known
// path (possibly nil). Under in-band telemetry the previous path
// generation is flushed first and the new walk records its hash decisions.
// The allocator component of the old path is dirtied here, the ones the
// new path crosses in routed.
func (s *Sim) routeFlow(f *Flow) error {
	now := s.Eng.Now()
	s.markFlow(f)
	s.inbandFlush(f)
	tryPort := func(port int) bool {
		var path []topo.LinkID
		var blackholed bool
		var err error
		switch {
		case s.inband != nil:
			ib := f.inbandState()
			ib.hops = ib.hops[:0]
			path, blackholed, err = s.R.PathObserved(f.Src, f.Dst, port, f.Tuple, now,
				func(d route.HopDecision) { ib.hops = append(ib.hops, d) })
		case s.obs != nil:
			// No in-band state to piggyback on: collect the hash decisions
			// into Sim scratch for the FlowRouted emission alone.
			s.obsHops = s.obsHops[:0]
			path, blackholed, err = s.R.PathObserved(f.Src, f.Dst, port, f.Tuple, now,
				func(d route.HopDecision) { s.obsHops = append(s.obsHops, d) })
		default:
			path, blackholed, err = s.R.Path(f.Src, f.Dst, port, f.Tuple, now)
		}
		f.Port = port
		f.Path = path
		f.Stalled = blackholed || err != nil
		if f.Stalled {
			f.Rate = 0
		}
		return !f.Stalled
	}
	// A pinned port is honored while it works end-to-end; failover falls
	// back to the bond choice (the ports share QP context, so this is
	// transparent to the application, §4).
	if p := f.PinnedPort; p >= 0 &&
		s.Top.LinkUsable(s.Top.AccessLink(f.Src.Host, f.Src.NIC, p)) && tryPort(p) {
		s.routed(f)
		return nil
	}
	p, err := s.R.PickAccessPort(f.Src, f.Dst, f.Tuple, now)
	if err != nil {
		f.Stalled = true
		f.Path = nil
		f.Rate = 0
		if f.ib != nil {
			f.ib.hops = f.ib.hops[:0]
		}
		s.obsHops = s.obsHops[:0]
		s.routed(f)
		return nil // flow exists but cannot move; not a caller error
	}
	tryPort(p)
	s.routed(f)
	return nil
}

// routed finishes a (re)route: it opens the in-band path generation,
// emits the routing observation and dirties every allocator component the
// new path crosses. The flow itself, unplaced, joins the next recompute's
// dirty region.
func (s *Sim) routed(f *Flow) {
	s.inbandOpen(f)
	s.observeRouted(f)
	f.comp = noComp
	for _, l := range f.Path {
		s.markLink(l)
	}
}

// Batch runs fn as a single mutation: every StartFlow/AbortFlow (and any
// nested mutation) inside shares one rate recomputation when fn returns,
// instead of recomputing per call. Since all the calls land at the same
// virtual instant, the resulting allocation — and every completion that
// follows — is identical to the unbatched sequence; only the O(flows x
// hops) recomputation work per call is saved. Collective rounds, which
// start hundreds of flows at one instant, are the intended callers. Flows
// started inside a batch carry Rate 0 until the batch ends.
func (s *Sim) Batch(fn func()) {
	s.beginMutate()
	defer s.endMutate()
	fn()
}

// beginMutate/endMutate bracket state changes: time is advanced first so
// in-flight transfers are accounted at old rates; rates are recomputed once
// after the outermost mutation completes.
func (s *Sim) beginMutate() {
	if s.mutating == 0 {
		s.advance()
	}
	s.mutating++
}

func (s *Sim) endMutate() {
	s.mutating--
	if s.mutating == 0 {
		s.recompute()
	}
}

// advance integrates flow progress and probe accumulators up to now.
func (s *Sim) advance() {
	now := s.Eng.Now()
	dt := (now - s.lastAdvance).Seconds()
	if dt > 0 {
		for _, f := range s.active {
			if f.Rate > 0 {
				f.Remaining -= f.Rate * dt
				if f.Remaining < 0 {
					f.Remaining = 0
				}
			}
		}
		for _, p := range s.probeList {
			p.integrate(s.lastAdvance.Seconds(), dt, s.PortBufferBytes)
		}
		if s.inband != nil {
			s.inbandIntegrate(dt)
		}
	}
	s.lastAdvance = now
}

// completionEvent fires at the earliest projected completion; it harvests
// every flow within BatchWindow of completion.
func (s *Sim) completionEvent() {
	s.beginMutate()
	now := s.Eng.Now()
	window := s.BatchWindow.Seconds()
	// The harvest list is Sim scratch, reused across events: completion
	// batches fire on every communication round, and the per-event
	// allocation showed up in the bench snapshots.
	done := s.done[:0]
	for i := 0; i < len(s.active); {
		f := s.active[i]
		if f.Rate > 0 && (f.Remaining <= 0 || f.Remaining/f.Rate <= window) {
			f.Remaining = 0
			f.DoneAt = now
			s.removeActive(f)
			done = append(done, f)
			continue // removeActive swapped a new flow into i
		}
		i++
	}
	var slowest sim.Time
	for _, f := range done {
		s.CompletedFlows++
		s.CompletedBits += f.Bits
		s.countTiers(f)
		s.logFlow(f)
		s.inbandFlush(f)
		s.ctrFlows.Inc()
		s.histFCT.Observe((f.DoneAt - f.StartedAt).Seconds())
		if s.Trace != nil {
			s.Trace.Complete(int64(f.StartedAt), int64(f.DoneAt-f.StartedAt),
				"netsim", "flow", telemetry.TidNetsim,
				telemetry.Arg{K: "id", V: f.ID},
				telemetry.Arg{K: "src", V: fmt.Sprintf("%d:%d", f.Src.Host, f.Src.NIC)},
				telemetry.Arg{K: "dst", V: fmt.Sprintf("%d:%d", f.Dst.Host, f.Dst.NIC)},
				telemetry.Arg{K: "bytes", V: f.Bits / 8},
				telemetry.Arg{K: "port", V: f.Port},
				telemetry.Arg{K: "hops", V: len(f.Path)})
		}
		if s.obs != nil {
			s.obs.FlowDone(now, f)
		}
		if s.Flight != nil {
			if d := f.DoneAt - f.StartedAt; d > slowest {
				slowest = d
			}
		}
		if f.OnComplete != nil {
			f.OnComplete(now, f)
		}
		if f.After != nil {
			f.After(now)
		}
	}
	if s.Flight != nil && len(done) > 0 {
		// One note per harvest batch, not per flow: completions arrive at
		// millions per second, so a per-flow note would both tax the hot
		// path (~7% wall on fig13 quick, measured) and scroll the bounded
		// ring so fast that a marked window held sub-millisecond context.
		// Batch size and the slowest completion are the incident-relevant
		// signals; per-flow truth lives in the flow log.
		s.Flight.Note(int64(now), "flows_done", "", int64(len(done)), int64(slowest))
	}
	// Drop the harvested references before the next event so completed
	// flows do not outlive their callbacks through the scratch slice.
	for i := range done {
		done[i] = nil
	}
	s.done = done[:0]
	s.endMutate()
}

// removeActive swap-removes a flow from the active list. Both its own
// component and the moved flow's are dirtied: the move changes the active
// order in which the moved flow's links sum their demand and utilization.
func (s *Sim) removeActive(f *Flow) {
	i := f.index
	last := len(s.active) - 1
	s.markFlow(f)
	s.markFlow(s.active[last])
	s.active[i] = s.active[last]
	s.active[i].index = i
	s.active = s.active[:last]
	f.index = -1
	f.comp = noComp
}

// AbortFlow removes an in-flight flow without completing it (no callback
// fires). Aborting a finished flow is a no-op.
func (s *Sim) AbortFlow(f *Flow) {
	if f == nil || f.index < 0 {
		return
	}
	s.beginMutate()
	defer s.endMutate()
	s.removeActive(f)
	s.inbandFlush(f)
	f.Stalled = false
	f.Rate = 0
}

// countTiers attributes a completed flow's bits to the highest tier its
// path visited.
func (s *Sim) countTiers(f *Flow) {
	agg, core := false, false
	for _, lk := range f.Path {
		switch s.Top.Node(s.Top.Link(lk).To).Kind {
		case topo.KindAgg:
			agg = true
		case topo.KindCore:
			core = true
		}
	}
	if agg {
		s.AggBits += f.Bits
	}
	if core {
		s.CoreBits += f.Bits
	}
}

// ActiveFlows returns the number of in-flight flows (including stalled).
func (s *Sim) ActiveFlows() int { return len(s.active) }

// StalledFlows returns the number of currently blackholed flows.
func (s *Sim) StalledFlows() int {
	n := 0
	for _, f := range s.active {
		if f.Stalled {
			n++
		}
	}
	return n
}
