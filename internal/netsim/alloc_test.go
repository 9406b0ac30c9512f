package netsim

import (
	"math"
	"math/rand"
	"testing"

	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

// checkMaxMinCertificate verifies that rates (parallel to flows, -1 =
// ignored) form a valid max-min fair point on top: no link over capacity,
// and every allocated flow is bottlenecked — some link on its path is
// saturated and the flow holds a maximal rate there. A zero-rate flow is
// certified by a zero-capacity (or fully failed) link the same way.
func checkMaxMinCertificate(t *testing.T, top *topo.Topology, flows []*Flow, rates []float64, tag string) {
	t.Helper()
	used := map[topo.LinkID]float64{}
	maxOn := map[topo.LinkID]float64{}
	for i, f := range flows {
		if rates[i] < 0 {
			continue
		}
		for _, lk := range f.Path {
			used[lk] += rates[i]
			if rates[i] > maxOn[lk] {
				maxOn[lk] = rates[i]
			}
		}
	}
	linkCap := func(lk topo.LinkID) float64 {
		if !top.LinkUsable(lk) {
			return 0
		}
		return top.Link(lk).CapBps
	}
	for lk, u := range used {
		if c := linkCap(lk); u > c*(1+1e-6)+1e-6 {
			t.Fatalf("%s: link %d carries %.3f over capacity %.3f", tag, lk, u, c)
		}
	}
	for i, f := range flows {
		if rates[i] < 0 {
			continue
		}
		bottlenecked := false
		for _, lk := range f.Path {
			c := linkCap(lk)
			if used[lk] >= c*(1-1e-6) && rates[i] >= maxOn[lk]*(1-1e-6) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("%s: flow %d at rate %.3f has no saturated bottleneck link", tag, f.ID, rates[i])
		}
	}
}

// TestAllocDifferential pins the link-centric allocator in alloc.go against
// the original flows-x-hops implementation (alloc_reference.go) on seeded
// randomized topologies and flow sets, with failed links and forced
// parallel filling mixed in. Every live rate must match the reference
// within 1e-6 relative, and both rate vectors must carry a max-min
// certificate.
func TestAllocDifferential(t *testing.T) {
	shapes := []struct {
		segments, hosts, aggs int
	}{
		{1, 4, 2},
		{2, 8, 4},
		{2, 6, 8},
	}
	rng := rand.New(rand.NewSource(0x4a11c))
	for trial := 0; trial < 30; trial++ {
		shape := shapes[trial%len(shapes)]
		top, err := topo.BuildHPN(topo.SmallHPN(shape.segments, shape.hosts, shape.aggs))
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		s := New(eng, top)
		if trial%2 == 1 {
			// Exercise the parallel fill path on half the trials; the rates
			// must not depend on it.
			s.ParallelFill = 4
			s.ParallelFillMinFlows = 1
		}
		nHosts := shape.segments * shape.hosts
		nFlows := 1 + rng.Intn(80)
		s.Batch(func() {
			for i := 0; i < nFlows; i++ {
				src := rng.Intn(nHosts)
				dst := rng.Intn(nHosts)
				if src == dst {
					dst = (dst + 1) % nHosts
				}
				nic := rng.Intn(8)
				size := float64(1+rng.Intn(64)) * (1 << 20)
				if _, err := s.StartFlow(
					route.Endpoint{Host: src, NIC: nic},
					route.Endpoint{Host: dst, NIC: nic},
					size, FlowOpts{SrcPort: -1}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if trial%3 == 2 {
			// Fail a random access cable: dead links must allocate zero
			// in both implementations.
			s.FailCable(top.AccessLink(rng.Intn(nHosts), rng.Intn(8), 0))
		}

		ref := referenceMaxMin(top, s.active)
		live := make([]float64, len(s.active))
		for i, f := range s.active {
			live[i] = f.Rate
			if f.Stalled || len(f.Path) == 0 {
				live[i] = -1
			}
		}
		for i := range s.active {
			if (ref[i] < 0) != (live[i] < 0) {
				t.Fatalf("trial %d flow %d: eligibility differs (ref %.3f, live %.3f)",
					trial, i, ref[i], live[i])
			}
			if ref[i] < 0 {
				continue
			}
			diff := math.Abs(ref[i] - live[i])
			if diff > 1e-6*math.Max(1, math.Abs(ref[i])) {
				t.Fatalf("trial %d flow %d: rate %.9g differs from reference %.9g",
					trial, i, live[i], ref[i])
			}
		}
		checkMaxMinCertificate(t, top, s.active, live, "live")
		checkMaxMinCertificate(t, top, s.active, ref, "reference")
	}
}

// TestAllocZeroCapacityLink is the regression test for the defensive
// no-progress branch: a zero-capacity link on a flow's path historically
// risked freezing flows without retiring their shares (corrupting capRem /
// nShare for everything sharing the path). The allocation must terminate,
// give the blocked flow rate zero with coherent accounting, and leave
// co-located traffic unharmed.
func TestAllocZeroCapacityLink(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	dead := top.AccessLink(0, 0, 0)
	top.Link(dead).CapBps = 0
	top.Link(top.Link(dead).Reverse).CapBps = 0

	eng := sim.New()
	s := New(eng, top)
	blocked, err := s.StartFlow(
		route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0},
		1<<20, FlowOpts{SrcPort: 0})
	if err != nil {
		t.Fatal(err)
	}
	moving, err := s.StartFlow(
		route.Endpoint{Host: 2, NIC: 1}, route.Endpoint{Host: 3, NIC: 1},
		1<<20, FlowOpts{SrcPort: -1})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Rate != 0 {
		t.Fatalf("flow through zero-capacity link got rate %v, want 0", blocked.Rate)
	}
	if moving.Rate <= 0 {
		t.Fatalf("unrelated flow got rate %v, want > 0", moving.Rate)
	}
	ref := referenceMaxMin(top, s.active)
	for i, f := range s.active {
		want := ref[i]
		if want < 0 {
			want = 0
		}
		if math.Abs(f.Rate-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("flow %d rate %v differs from reference %v", f.ID, f.Rate, want)
		}
	}
	// The moving flow must still drain; the engine must not spin on the
	// zero-rate one.
	eng.Run()
	if s.CompletedFlows != 1 || moving.index >= 0 {
		t.Fatalf("completed %d flows, want exactly the unblocked one", s.CompletedFlows)
	}
	if blocked.index < 0 || blocked.Rate != 0 {
		t.Fatal("blocked flow should remain active at rate 0")
	}
}

// TestFillComponentDefensiveSweep drives the unreachable-by-construction
// defensive sweep in fillComponent directly: a component whose link list
// omits a flow's links (so the heap never freezes it) must park the flow at
// rate zero AND retire its path shares, keeping capRem/nShare coherent for
// any later accounting.
func TestFillComponentDefensiveSweep(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	s := New(eng, top)
	lk := top.AccessLink(0, 0, 0)

	f := &Flow{ID: 1, Remaining: 1 << 20, Rate: 123, Path: []topo.LinkID{lk}}
	s.active = []*Flow{f}
	s.region = []*Flow{f}
	s.curEpoch++
	s.touch(lk)
	s.nShare[lk] = 1
	s.inc[lk] = append(s.inc[lk], 0)

	c := allocComp{links: noLink, nFlows: 1} // link list deliberately broken
	s.ensureHeaps(1)
	minT := s.fillComponent(&c, f.comp, &s.heaps[0], 0)

	if f.Rate != 0 {
		t.Fatalf("swept flow kept stale rate %v, want 0", f.Rate)
	}
	if minT != -1 {
		t.Fatalf("swept component projected completion %v, want -1", minT)
	}
	if got := s.nShare[lk]; got != 0 {
		t.Fatalf("share count not retired: nShare=%d, want 0", got)
	}
	if !f.frozen {
		t.Fatal("swept flow not marked frozen")
	}
}

// TestReferenceNoProgressAccounting checks the fixed defensive branch in
// referenceMaxMin by construction: since the branch is unreachable through
// the public surface, assert the accounting identity it must preserve —
// after a full allocation the per-link rate sums never exceed capacity even
// when a zero-capacity link forces the min share to 0 from the first round.
func TestReferenceNoProgressAccounting(t *testing.T) {
	top, err := topo.BuildHPN(topo.SmallHPN(1, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	dead := top.AccessLink(1, 0, 0)
	top.Link(dead).CapBps = 0

	eng := sim.New()
	s := New(eng, top)
	for i := 0; i < 8; i++ {
		src, dst := i%4, (i+1)%4
		if _, err := s.StartFlow(
			route.Endpoint{Host: src, NIC: 0}, route.Endpoint{Host: dst, NIC: 0},
			1<<20, FlowOpts{SrcPort: 0}); err != nil {
			t.Fatal(err)
		}
	}
	rates := referenceMaxMin(top, s.active)
	checkMaxMinCertificate(t, top, s.active, rates, "reference-zero-cap")
	for i, f := range s.active {
		onDead := false
		for _, l := range f.Path {
			if l == dead {
				onDead = true
			}
		}
		if onDead && rates[i] != 0 {
			t.Fatalf("flow %d crosses the zero-capacity link but got rate %v", f.ID, rates[i])
		}
	}
}
