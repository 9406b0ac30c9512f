package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// mutationRig drives a random mutation sequence against one small fabric.
// Every draw comes from the rig's own generator, so two rigs built from
// one seed and stepped with the same ops apply the same mutations as long
// as their simulators agree.
type mutationRig struct {
	t      *testing.T
	rng    *rand.Rand
	top    *topo.Topology
	eng    *sim.Engine
	s      *Sim
	nHosts int
	// cables are the candidate failure sites (access and ToR-Agg links);
	// switches the candidate node failures.
	cables   []topo.LinkID
	switches []topo.NodeID
	downC    []topo.LinkID
	downN    []topo.NodeID
}

func newMutationRig(t *testing.T, seed int64) *mutationRig {
	shapes := []struct{ segments, hosts, aggs int }{{1, 4, 2}, {2, 4, 4}, {2, 6, 8}}
	rng := rand.New(rand.NewSource(seed))
	shape := shapes[rng.Intn(len(shapes))]
	top, err := topo.BuildHPN(topo.SmallHPN(shape.segments, shape.hosts, shape.aggs))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	r := &mutationRig{t: t, rng: rng, top: top, eng: eng, s: New(eng, top),
		nHosts: shape.segments * shape.hosts}
	if rng.Intn(2) == 1 {
		r.s.EnableInband(0)
	}
	for _, l := range top.Links {
		from, to := top.Node(l.From).Kind, top.Node(l.To).Kind
		switch {
		case from == topo.KindHost || (from == topo.KindToR && to == topo.KindAgg):
			r.cables = append(r.cables, l.ID)
		}
		if rng.Intn(8) == 0 {
			r.s.TrackLink(l.ID, "probe")
		}
	}
	for _, n := range top.Nodes {
		if n.Kind == topo.KindToR || n.Kind == topo.KindAgg {
			r.switches = append(r.switches, n.ID)
		}
	}
	return r
}

// step applies one mutation chosen by op.
func (r *mutationRig) step(op byte) {
	s, rng := r.s, r.rng
	switch op % 8 {
	case 0, 1: // a batch of starts, like one collective round
		n := 1 + rng.Intn(12)
		s.Batch(func() {
			for i := 0; i < n; i++ {
				src, dst := rng.Intn(r.nHosts), rng.Intn(r.nHosts)
				if src == dst {
					dst = (dst + 1) % r.nHosts
				}
				nic := rng.Intn(8)
				port := -1
				if rng.Intn(3) == 0 {
					port = rng.Intn(2)
				}
				size := float64(1+rng.Intn(64)) * (1 << 18)
				if _, err := s.StartFlow(route.Endpoint{Host: src, NIC: nic},
					route.Endpoint{Host: dst, NIC: nic}, size, FlowOpts{SrcPort: port}); err != nil {
					r.t.Fatal(err)
				}
			}
		})
	case 2, 3: // the next event: a completion batch or a reroute pass
		r.eng.Step()
	case 4: // abort
		if len(s.active) > 0 {
			s.AbortFlow(s.active[rng.Intn(len(s.active))])
		}
	case 5: // cable failure or recovery
		if len(r.downC) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(r.downC))
			s.RecoverCable(r.downC[i])
			r.downC = append(r.downC[:i], r.downC[i+1:]...)
		} else {
			l := r.cables[rng.Intn(len(r.cables))]
			s.FailCable(l)
			r.downC = append(r.downC, l)
		}
	case 6: // switch failure or recovery
		if len(r.downN) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(r.downN))
			s.RecoverNode(r.downN[i])
			r.downN = append(r.downN[:i], r.downN[i+1:]...)
		} else {
			n := r.switches[rng.Intn(len(r.switches))]
			s.FailNode(n)
			r.downN = append(r.downN, n)
		}
	case 7: // an explicit reroute pass
		s.reroutePass()
	}
}

// allocSnapshot is everything a recompute leaves behind that an
// incremental refill must reproduce bit for bit.
type allocSnapshot struct {
	rates     []uint64
	at        sim.Time
	armed     bool
	probeUtil []uint64
	probeDem  []uint64
	stateHash uint64
	comps     int
}

func snapshotAlloc(s *Sim) allocSnapshot {
	var a allocSnapshot
	for _, f := range s.active {
		a.rates = append(a.rates, math.Float64bits(f.Rate))
	}
	if s.completionEv != nil {
		a.at, a.armed = s.completionEv.At(), true
	}
	for _, p := range s.probeList {
		a.probeUtil = append(a.probeUtil, math.Float64bits(p.util))
		a.probeDem = append(a.probeDem, math.Float64bits(p.demand))
	}
	a.stateHash = s.StateHash64()
	a.comps = s.liveComps
	return a
}

// compareAlloc fails unless two snapshots taken after the same mutation
// sequence agree bit for bit.
func compareAlloc(t *testing.T, tag string, active []*Flow, probes []*LinkProbe, inc, full allocSnapshot) {
	t.Helper()
	if len(inc.rates) != len(full.rates) {
		t.Fatalf("%s: %d active flows incrementally, %d under full refills", tag, len(inc.rates), len(full.rates))
	}
	for i, f := range active {
		if inc.rates[i] != full.rates[i] {
			t.Fatalf("%s: flow %d rate %v incrementally, %v under full refills", tag, f.ID,
				math.Float64frombits(inc.rates[i]), math.Float64frombits(full.rates[i]))
		}
	}
	if inc.armed != full.armed || inc.at != full.at {
		t.Fatalf("%s: completion armed=%v at %d incrementally, armed=%v at %d under full refills",
			tag, inc.armed, inc.at, full.armed, full.at)
	}
	for i, p := range probes {
		if inc.probeUtil[i] != full.probeUtil[i] || inc.probeDem[i] != full.probeDem[i] {
			t.Fatalf("%s: probe on link %d util/demand %v/%v incrementally, %v/%v under full refills",
				tag, p.Link, math.Float64frombits(inc.probeUtil[i]), math.Float64frombits(inc.probeDem[i]),
				math.Float64frombits(full.probeUtil[i]), math.Float64frombits(full.probeDem[i]))
		}
	}
	if inc.stateHash != full.stateHash {
		t.Fatalf("%s: state fingerprint (flows, in-band demand/capacity/worklist) differs under full refills", tag)
	}
	if inc.comps != full.comps {
		t.Fatalf("%s: %d live components incrementally, %d under full refills", tag, inc.comps, full.comps)
	}
}

// checkReference compares a simulator's rates against the reference
// allocator (within 1e-6) and the max-min certificate.
func checkReference(t *testing.T, tag string, top *topo.Topology, s *Sim) {
	t.Helper()
	ref := referenceMaxMin(top, s.active)
	live := make([]float64, len(s.active))
	for i, f := range s.active {
		live[i] = f.Rate
		if f.Stalled || len(f.Path) == 0 {
			if f.Rate > 0 {
				t.Fatalf("%s: non-runnable flow %d holds rate %v", tag, f.ID, f.Rate)
			}
			live[i] = -1
		}
		if (ref[i] < 0) != (live[i] < 0) {
			t.Fatalf("%s: flow %d eligibility differs (ref %v, live %v)", tag, f.ID, ref[i], live[i])
		}
		if ref[i] >= 0 && math.Abs(ref[i]-live[i]) > 1e-6*math.Max(1, math.Abs(ref[i])) {
			t.Fatalf("%s: flow %d rate %.9g differs from reference %.9g", tag, f.ID, live[i], ref[i])
		}
	}
	checkMaxMinCertificate(t, top, s.active, live, tag)
}

// runAllocMutations drives two rigs built from the same seed in lockstep
// through ops, then drains both engines. The first is purely incremental:
// its components evolve across every recompute and are never forced to
// rebuild. The second dissolves every component before each mutation, so
// each of its recomputes is a full refill. After every step the two must
// agree bit for bit, and the incremental rig must match the reference.
func runAllocMutations(t *testing.T, seed int64, ops []byte) {
	inc, full := newMutationRig(t, seed), newMutationRig(t, seed)
	check := func(tag string) {
		t.Helper()
		if n := len(inc.s.dirtyComps); n != 0 {
			t.Fatalf("%s: recompute left %d dirty components queued", tag, n)
		}
		compareAlloc(t, tag, inc.s.active, inc.s.probeList, snapshotAlloc(inc.s), snapshotAlloc(full.s))
		checkReference(t, tag, inc.top, inc.s)
	}
	check("initial")
	for i, op := range ops {
		inc.step(op)
		full.s.markAllDirty()
		full.step(op)
		check(fmt.Sprintf("seed %d op %d (kind %d)", seed, i, op%8))
	}
	for i := 0; i < 10000; i++ {
		full.s.markAllDirty()
		more, fullMore := inc.eng.Step(), full.eng.Step()
		if more != fullMore {
			t.Fatalf("seed %d drain step %d: incremental rig has events=%v, full-refill rig %v", seed, i, more, fullMore)
		}
		if !more {
			break
		}
		check(fmt.Sprintf("seed %d drain step %d", seed, i))
	}
}

// TestAllocIncrementalMatchesFull is the dirty-component exactness test:
// over 30 seeded sequences of batched starts, completions, aborts,
// cable/switch failures and recoveries and reroute passes, every flow's
// rate, the armed completion instant, probe accumulators and the in-band
// state of a purely incremental simulator are bit-identical to those of a
// twin that fully refills on every recompute, and the rates match the
// reference allocator within 1e-6.
func TestAllocIncrementalMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		ops := make([]byte, 40)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runAllocMutations(t, seed, ops)
	}
}

// FuzzAllocMutations fuzzes the same contract over arbitrary mutation
// sequences: each byte of ops picks one mutation, seed fixes the fabric
// shape, fill mode, telemetry and every mutation's parameters.
func FuzzAllocMutations(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 2, 2, 4, 2})
	f.Add(int64(2), []byte{0, 1, 5, 7, 2, 5, 2, 3})
	f.Add(int64(3), []byte{0, 0, 0, 6, 2, 6, 7, 2, 2})
	f.Add(int64(4), []byte{1, 5, 5, 0, 2, 4, 4, 3, 5, 7})
	f.Add(int64(5), []byte{0, 6, 0, 6, 2, 2, 7, 1, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		runAllocMutations(t, seed, ops)
	})
}

// TestAllocSharedTopologyFailure covers fabric changes made through
// another simulator sharing the topology, as in a sharded ensemble: a
// failure on a pod-owned link or switch goes to that pod's simulator
// (the owning domain), yet an unrestricted global simulator's cross-pod
// flow crosses it. The global flow sits in a clean component when the
// global simulator next recomputes for an unrelated start; its rate must
// still follow the dead (and then recovered) capacity exactly as a full
// refill would give it.
func TestAllocSharedTopologyFailure(t *testing.T) {
	cfg := topo.SmallHPN(1, 4, 2)
	cfg.Pods = 2
	top, err := topo.BuildHPN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := topo.ShardByPod(top)
	if err != nil {
		t.Fatal(err)
	}
	var podHosts [2][]int
	for h := range top.Hosts {
		d := sh.ShardOfHost(top, h)
		podHosts[d-1] = append(podHosts[d-1], h)
	}
	global := New(sim.New(), top)
	pods := []*Sim{New(sim.New(), top), New(sim.New(), top)}
	for i, p := range pods {
		p.RestrictShard(sh, i+1)
	}
	// owner is the simulator a failure on link l is injected into.
	owner := func(l topo.LinkID) *Sim {
		if d := sh.ShardOfLink(l); d > 0 {
			return pods[d-1]
		}
		return global
	}

	cross, err := global.StartFlow(route.Endpoint{Host: podHosts[0][0], NIC: 0},
		route.Endpoint{Host: podHosts[1][0], NIC: 0}, 1<<30, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	healthy := cross.Rate
	if healthy <= 0 {
		t.Fatalf("cross-pod flow starts at rate %v", healthy)
	}
	var podLink topo.LinkID = -1
	var agg topo.NodeID = -1
	for _, l := range cross.Path {
		if sh.ShardOfLink(l) == 1 && podLink < 0 {
			podLink = l
		}
		if n := top.Link(l).To; top.Node(n).Kind == topo.KindAgg && agg < 0 {
			agg = n
		}
	}
	if podLink < 0 || agg < 0 {
		t.Fatalf("cross-pod path %v has no pod-0 link or agg switch", cross.Path)
	}
	if sh.ShardOfNode(agg) != 1 {
		t.Fatalf("agg %d owned by domain %d, want pod 0's", agg, sh.ShardOfNode(agg))
	}

	// Each unrelated start is an intra-segment flow of pod 1 on another
	// rail: its path shares no link with the cross-pod flow's.
	nStarts := 0
	unrelatedStart := func(tag string) {
		t.Helper()
		nStarts++
		src, dst := podHosts[1][1], podHosts[1][2]
		f, err := global.StartFlow(route.Endpoint{Host: src, NIC: 1 + nStarts%7},
			route.Endpoint{Host: dst, NIC: 1 + nStarts%7}, 1<<30, FlowOpts{SrcPort: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range f.Path {
			if pathHasLink(cross.Path, l) {
				t.Fatalf("%s: unrelated flow shares link %d with the cross-pod flow", tag, l)
			}
		}
		inc := snapshotAlloc(global)
		global.markAllDirty()
		global.recompute()
		compareAlloc(t, tag, global.active, global.probeList, inc, snapshotAlloc(global))
		checkReference(t, tag, top, global)
	}

	owner(podLink).FailCable(podLink)
	unrelatedStart("pod cable down")
	if cross.Rate != 0 {
		t.Fatalf("cross-pod flow keeps rate %v through a dead pod cable", cross.Rate)
	}
	owner(podLink).RecoverCable(podLink)
	unrelatedStart("pod cable up")
	if cross.Rate != healthy {
		t.Fatalf("cross-pod flow at rate %v after recovery, want %v", cross.Rate, healthy)
	}
	// A pod-owned agg switch takes its global-owned agg-core links down
	// with it.
	pods[0].FailNode(agg)
	unrelatedStart("pod agg down")
	if cross.Rate != 0 {
		t.Fatalf("cross-pod flow keeps rate %v through a dead agg switch", cross.Rate)
	}
	pods[0].RecoverNode(agg)
	unrelatedStart("pod agg up")
	if cross.Rate != healthy {
		t.Fatalf("cross-pod flow at rate %v after agg recovery, want %v", cross.Rate, healthy)
	}
}
