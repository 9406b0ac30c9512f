package netsim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hpn/internal/sim"
	"hpn/internal/topo"
)

// This file is the max-min fair (progressive filling) allocator. It is
// incremental at component granularity:
//
//   - The runnable flows are partitioned into connected components of the
//     flow-link contention graph. Components share no links, so max-min
//     fairness separates exactly over them, and the components persist
//     across recomputes: each flow records its component, each in-use link
//     records its component and keeps its flow-incidence list (active-list
//     indices, which stay valid because any flow whose index changes
//     dirties its component) and offered demand.
//   - Every mutation marks the components it touches dirty: routeFlow
//     marks the flow's old component and every component its new path
//     crosses (and leaves the flow unplaced), removeActive marks the
//     removed flow's component and the one of the flow its swap moves, and
//     failure stalls mark the stalled flow's component.
//   - Fabric changes are caught at the topology, not at the call site: a
//     topology may be shared by several simulators (one per domain of a
//     sharded ensemble), and a failure injected into one changes the
//     capacity of links another's flows cross. Every link and node state
//     change bumps Topology.StateGen; when recompute sees it moved, it
//     marks the component of every in-use link whose usability differs
//     from the one it was last filled with.
//   - recompute scans the active flows once, in order. The runnable flows
//     of dirty components and the unplaced ones form the dirty region,
//     which is gathered (per-link accounting and incidence lists),
//     decomposed by union-find over path links and refilled. Clean
//     components keep their rates, demand and incidence lists untouched;
//     the same scan takes their earliest projected completion.
//
// Why a clean component may be skipped bit for bit: a component's rates
// depend only on its flows' paths and its links' capacities. The fill pops
// bottlenecks in (share, link) order, and all flows frozen at one
// bottleneck subtract the same share from every link they cross, so the
// result does not depend on the order flows are visited. Both inputs are
// unchanged for a clean component, so a refill would reproduce its rates
// exactly. The sums that do depend on flow order — a link's offered demand
// and a probe's utilization, both accumulated in active-flow order — are
// kept in that order because the only active-order change, removeActive's
// swap, dirties the moved flow's component. A clean flow's projected
// completion is rescanned as Remaining/Rate, the expression the fill
// itself uses, so the armed completion instant is the same as after a full
// refill.
//
// Filling a dirty component pops the most constrained link from a min-heap
// keyed by fair share capRem/nShare and freezes exactly the flows on its
// incidence list: O(F*P + L*log L) over the dirty region instead of the
// reference's O(rounds * F * P). Dirty components fill serially or, past a
// size threshold, in parallel across goroutines; each touches only its own
// flows and links, so the rates are byte-identical at any worker count.
//
// The original flows-x-hops implementation lives in
// alloc_reference_test.go; the differential and mutation-sequence tests
// pin this allocator against it and against a twin simulator that fully
// refills on every recompute.

// noComp is Flow.comp for a flow in no component: not runnable, or
// routed since the last recompute and not yet placed.
const noComp = -1

// noLink ends a component's link list.
const noLink topo.LinkID = -1

// allocComp is one persistent connected component of the flow-link
// contention graph. Its flows are the active flows whose comp names it;
// its links form an intrusive list threaded through Sim.linkNext, so
// components own no slices and the allocator's persistent state stays
// O(links + flows) however often component slots are reused. A free slot
// has no flows. minT is the earliest projected completion of the last
// fill (-1 when no flow moves).
type allocComp struct {
	links  topo.LinkID
	nFlows int
	minT   float64
	dirty  bool // queued on Sim.dirtyComps for the next recompute
}

// heapEnt is one candidate bottleneck: a link and the fair share it offered
// when keyed. Entries go stale as flows freeze (shares only grow); a stale
// minimum is detected by recomputing the share and re-keyed in place at its
// current value, so each link holds exactly one live entry until it drains.
type heapEnt struct {
	share float64
	link  topo.LinkID
}

// linkHeap is a binary min-heap of (share, link), ordered by share then
// link ID so equal-share pops are deterministic. It is seeded by bulk
// heapify and updated in place (replace-top) on stale entries, so each
// entry costs one sift rather than a pop/push pair.
type linkHeap []heapEnt

func entLess(a, b heapEnt) bool {
	if a.share < b.share {
		return true
	}
	if a.share > b.share {
		return false
	}
	return a.link < b.link
}

// heapify establishes the heap invariant over arbitrary contents in O(n).
func (h linkHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h linkHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entLess(h[l], h[m]) {
			m = l
		}
		if r < n && entLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popDiscard removes the minimum entry (the caller has already read it).
func (h *linkHeap) popDiscard() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.siftDown(0)
}

// defaultParallelMinFlows is the dirty-region flow count below which
// component filling always stays on the calling goroutine: under it, spawn
// cost exceeds the fill work.
const defaultParallelMinFlows = 192

// markComp queues a component for rebuild at the next recompute.
func (s *Sim) markComp(ci int32) {
	if c := &s.comps[ci]; !c.dirty {
		c.dirty = true
		s.dirtyComps = append(s.dirtyComps, ci)
	}
}

// markFlow dirties the component a flow belongs to (if any): its path,
// runnability or place in the active order is about to change.
func (s *Sim) markFlow(f *Flow) {
	if f.comp >= 0 {
		s.markComp(f.comp)
	}
}

// markLink dirties the component using a link (if any): a new path now
// crosses it.
func (s *Sim) markLink(l topo.LinkID) {
	if ci := s.linkComp[l]; ci >= 0 {
		s.markComp(ci)
	}
}

// markAllDirty forces the next recompute to rebuild every component, for
// state resets that bypass the per-mutation marking.
func (s *Sim) markAllDirty() {
	for ci := range s.comps {
		if s.comps[ci].nFlows > 0 {
			s.markComp(int32(ci))
		}
	}
}

// recompute restores the max-min fair allocation after a mutation by
// rebuilding and refilling the dirty components, refreshes probe
// accumulators, and (re-)arms the next completion event. See the file
// comment for the algorithm and its exactness argument.
func (s *Sim) recompute() {
	rtk := s.phRecompute.Begin()
	s.ctrRecomputes.Inc()
	if s.Trace != nil {
		// One counter sample per allocation round: the active-flow track
		// lines up recomputation churn against spans in the trace viewer.
		s.Trace.Counter(int64(s.Eng.Now()), "active_flows", float64(len(s.active)))
	}

	dtk := s.phDecompose.Begin()
	s.syncFabric()
	region, best := s.collectDirty()
	s.rebuild(region)
	s.phDecompose.End(dtk)
	s.phComponents.Add(int64(s.liveComps))
	s.phDirtyComps.Add(int64(len(s.rebuilt)))

	ftk := s.phFill.Begin()
	if workers := s.fillWorkers(len(region)); workers > 1 {
		s.ensureHeaps(workers)
		var next atomic.Int64
		fill := func(shard int) {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.rebuilt) {
					return
				}
				c := &s.comps[s.rebuilt[i]]
				c.minT = s.fillComponent(c, s.rebuilt[i], &s.heaps[shard], shard)
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fill(w)
			}()
		}
		// The calling goroutine fills as worker 0, so merge_wait measures
		// only the wait for straggling workers.
		fill(0)
		wtk := s.phMergeWait.Begin()
		wg.Wait()
		s.phMergeWait.End(wtk)
	} else {
		s.ensureHeaps(1)
		for _, ci := range s.rebuilt {
			c := &s.comps[ci]
			c.minT = s.fillComponent(c, ci, &s.heaps[0], 0)
		}
	}
	s.phFill.End(ftk)
	// Deterministic merge: an exact float min, independent of which worker
	// filled what.
	for _, ci := range s.rebuilt {
		if t := s.comps[ci].minT; t >= 0 && (best < 0 || t < best) {
			best = t
		}
	}

	// Refresh probe accumulators from the allocation. Iteration goes through
	// the registration-ordered probeList, never a map, so accumulator
	// refresh order (and anything it may ever feed) stays deterministic.
	// Utilization comes from the link's incidence list, summed in active
	// order.
	for _, p := range s.probeList {
		p.util, p.demand = 0, 0
		lk := p.Link
		p.cap = s.Top.Link(lk).CapBps
		if !s.Top.LinkUsable(lk) {
			p.cap = 0
		}
		if s.linkComp[lk] >= 0 {
			p.demand = s.demand[lk]
			for _, fi := range s.inc[lk] {
				p.util += s.active[fi].Rate
			}
		}
	}
	if s.inband != nil {
		s.inbandRefresh()
	}

	s.scheduleCompletion(best)
	s.phRecompute.End(rtk)
}

// syncFabric dirties the component of every in-use link whose usability
// changed since the component was filled, if any link or node state
// changed since the last look. It scans links rather than trusting the
// failure handlers' own marking, so changes made through another
// simulator sharing the topology are caught too. Only in-use links are
// read, and a shard simulator uses only links its own domain owns, so the
// marking is the same however concurrent domains interleave.
func (s *Sim) syncFabric() {
	g := s.Top.StateGen()
	if g == s.topoGen {
		return
	}
	s.topoGen = g
	for lk, ci := range s.linkComp {
		if ci >= 0 && s.Top.LinkUsable(topo.LinkID(lk)) != s.linkUp[lk] {
			s.markComp(ci)
		}
	}
}

// collectDirty scans the active flows in order. Runnable flows of dirty
// components and unplaced runnable flows form the returned dirty region;
// non-runnable ones are detached (every path that stalls a flow has
// already zeroed its rate); clean flows contribute their projected
// completion to best (-1 when none moves). The dirty components are then
// dissolved.
func (s *Sim) collectDirty() (region []*Flow, best float64) {
	region, best = s.region[:0], -1
	for _, f := range s.active {
		if ci := f.comp; ci >= 0 && !s.comps[ci].dirty {
			if f.Rate > 0 {
				if t := f.Remaining / f.Rate; best < 0 || t < best {
					best = t
				}
			}
			continue
		}
		if f.Stalled || len(f.Path) == 0 {
			f.comp = noComp
			continue
		}
		region = append(region, f)
	}
	for _, ci := range s.dirtyComps {
		for l := s.comps[ci].links; l != noLink; l = s.linkNext[l] {
			s.linkComp[l] = noComp
		}
		s.comps[ci] = allocComp{links: noLink}
		s.freeComps = append(s.freeComps, ci)
		s.liveComps--
	}
	s.dirtyComps = s.dirtyComps[:0]
	s.region = region
	return region, best
}

// rebuild gathers the dirty region in active order — per-link share
// counts, remaining capacity, incidence lists and offered demand — and
// decomposes it into fresh components, listed in s.rebuilt. The region is
// closed under link sharing (every clean component it could touch was
// dirtied by the mutation that routed onto it), so its links are exactly
// the ones touched here.
func (s *Sim) rebuild(region []*Flow) {
	s.curEpoch++
	s.touched = s.touched[:0]
	for _, f := range region {
		for i, lk := range f.Path {
			s.touch(lk)
			s.nShare[lk]++
			s.inc[lk] = append(s.inc[lk], int32(f.index))
			if i > 0 {
				s.union(f.Path[0], lk)
			}
		}
	}

	// Offered-demand model for the queue proxy: a flow wishes for its fair
	// share at its first (access) link.
	for _, f := range region {
		first := f.Path[0]
		wish := s.capRem[first] / float64(s.nShare[first])
		for _, lk := range f.Path {
			s.demand[lk] += wish
		}
	}

	s.rebuilt = s.rebuilt[:0]
	for _, f := range region {
		root := s.find(int32(f.Path[0]))
		ci := s.rootComp[root]
		if ci < 0 {
			ci = s.allocComp()
			s.rootComp[root] = ci
			s.rebuilt = append(s.rebuilt, ci)
		}
		s.comps[ci].nFlows++
		f.comp = ci
		f.frozen = false
	}
	for _, lk := range s.touched {
		ci := s.rootComp[s.find(int32(lk))]
		s.linkNext[lk] = s.comps[ci].links
		s.comps[ci].links = lk
		s.linkComp[lk] = ci
	}
}

// fillWorkers decides the fill parallelism for this recompute: 1 unless
// at least two components are dirty and the dirty region holds enough
// flows to amortize goroutine startup. ParallelFill pins the worker count
// (1 forces serial); 0 defers to GOMAXPROCS.
func (s *Sim) fillWorkers(regionFlows int) int {
	if len(s.rebuilt) < 2 {
		return 1
	}
	minFlows := s.ParallelFillMinFlows
	if minFlows <= 0 {
		minFlows = defaultParallelMinFlows
	}
	if regionFlows < minFlows {
		return 1
	}
	w := s.ParallelFill
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, len(s.rebuilt)))
}

// ensureHeaps grows the per-worker heap scratch to n entries.
func (s *Sim) ensureHeaps(n int) {
	for len(s.heaps) < n {
		s.heaps = append(s.heaps, nil)
	}
}

// fillComponent runs progressive filling over one freshly rebuilt
// component ci and returns its earliest projected completion in seconds
// (-1 if none). It reads and writes only the component's own flows and links
// (plus the worker-private heap), which is what makes parallel component
// fills race-free and schedule-independent. shard is the caller's worker
// index: heap operations are tallied locally and flushed once into that
// profiler shard, so the hot loop costs nothing extra and concurrent
// workers never share a counter cache line.
//
// Invariant behind the lazy heap: freezing a flow at the current bottleneck
// share can only raise the share of every link it crosses, so a popped
// entry whose recorded share is below the link's current share is stale and
// is re-pushed at its current value; a fresh pop is the exact component-wide
// minimum (every other link's current share is at least its heap key). The
// tie tolerance matches the reference implementation's freeze threshold.
func (s *Sim) fillComponent(c *allocComp, ci int32, h *linkHeap, shard int) float64 {
	heapOps := int64(0)
	hs := (*h)[:0]
	for lk := c.links; lk != noLink; lk = s.linkNext[lk] {
		if n := s.nShare[lk]; n > 0 {
			hs = append(hs, heapEnt{share: s.capRem[lk] / float64(n), link: lk})
		}
	}
	hs.heapify()
	*h = hs
	minT := -1.0
	// live counts the component's still-unfrozen flows: once it hits zero
	// the remaining heap entries can only be drained or stale links, so the
	// loop stops instead of sifting through them (the dominant waste on
	// symmetric workloads where one plateau freezes everything).
	live := c.nFlows
	for live > 0 && len(*h) > 0 {
		e := (*h)[0]
		n := s.nShare[e.link]
		if n == 0 {
			heapOps++
			h.popDiscard() // fully drained by earlier freezes
			continue
		}
		cur := s.capRem[e.link] / float64(n)
		if cur > e.share*(1+1e-9)+1e-9 {
			// Stale: the share grew since the entry was keyed. Re-key it in
			// place and restore the invariant with a single sift.
			heapOps++
			(*h)[0].share = cur
			(*h).siftDown(0)
			continue
		}
		heapOps++
		h.popDiscard()
		for _, fi := range s.inc[e.link] {
			f := s.active[fi]
			if f.frozen {
				continue
			}
			f.frozen = true
			live--
			f.Rate = cur
			if cur > 0 {
				if t := f.Remaining / cur; minT < 0 || t < minT {
					minT = t
				}
			}
			for _, l2 := range f.Path {
				rem := s.capRem[l2] - cur
				if rem < 0 {
					rem = 0 // float guard; exact arithmetic keeps this >= 0
				}
				s.capRem[l2] = rem
				s.nShare[l2]--
			}
		}
	}
	// Defensive: a flow every one of whose links drained without freezing
	// it cannot occur (its own membership keeps nShare >= 1 on each of its
	// links, and each such link holds a heap entry until processed), but if
	// the invariant ever broke we must not leave stale rates or corrupt the
	// share accounting — park the flow at zero rate and retire its path
	// shares consistently.
	if live > 0 {
		for _, f := range s.region {
			if f.comp != ci || f.frozen {
				continue
			}
			f.frozen = true
			f.Rate = 0
			for _, l2 := range f.Path {
				s.nShare[l2]--
			}
		}
	}
	s.phHeapOps.AddShard(heapOps, shard)
	return minT
}

// touch initializes the gather accounting for a link entering the dirty
// region in this recompute.
func (s *Sim) touch(lk topo.LinkID) {
	if s.epoch[lk] == s.curEpoch {
		return
	}
	s.epoch[lk] = s.curEpoch
	cap := s.Top.Link(lk).CapBps
	up := s.Top.LinkUsable(lk)
	if !up {
		cap = 0
	}
	s.linkUp[lk] = up
	s.capRem[lk] = cap
	s.nShare[lk] = 0
	s.demand[lk] = 0
	s.inc[lk] = s.inc[lk][:0]
	s.ufParent[lk] = int32(lk)
	s.rootComp[lk] = noComp
	s.touched = append(s.touched, lk)
}

// find returns the union-find root of a touched link, with path halving.
// Roots are canonical: union always parents the larger root under the
// smaller, so a component's root is its smallest link ID regardless of
// union order.
func (s *Sim) find(l int32) int32 {
	p := s.ufParent
	for p[l] != l {
		p[l] = p[p[l]]
		l = p[l]
	}
	return l
}

// union merges the components of two touched links.
func (s *Sim) union(a, b topo.LinkID) {
	ra, rb := s.find(int32(a)), s.find(int32(b))
	if ra == rb {
		return
	}
	if ra < rb {
		s.ufParent[rb] = ra
	} else {
		s.ufParent[ra] = rb
	}
}

// allocComp takes a free component slot or appends a new one, and returns
// its index.
func (s *Sim) allocComp() int32 {
	s.liveComps++
	if n := len(s.freeComps); n > 0 {
		ci := s.freeComps[n-1]
		s.freeComps = s.freeComps[:n-1]
		return ci
	}
	s.comps = append(s.comps, allocComp{links: noLink})
	return int32(len(s.comps) - 1)
}

// scheduleCompletion (re)arms the completion event for the earliest
// projected completion (best < 0 means no flow is moving). The persistent
// Event is moved in place when still pending, so the hot path allocates
// nothing.
func (s *Sim) scheduleCompletion(best float64) {
	if best < 0 {
		if s.completionEv != nil {
			s.Eng.Cancel(s.completionEv)
			s.completionEv = nil
		}
		return
	}
	at := s.Eng.Now() + sim.Time(best*float64(sim.Second))
	if s.Eng.Reschedule(s.completionEv, at) {
		return
	}
	// Pinned: the handle is retained across firings for the Reschedule fast
	// path above, so the engine must never recycle it into its free list.
	s.completionEv = s.Eng.ScheduleAt(at, s.completionEvent).Pin()
}
