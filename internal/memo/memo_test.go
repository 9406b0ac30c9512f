package memo

import (
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
	"hpn/internal/topo"
)

func newNet(t *testing.T) (*sim.Engine, *topo.Topology, *netsim.Sim) {
	t.Helper()
	top, err := topo.BuildHPN(topo.SmallHPN(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	return eng, top, netsim.New(eng, top)
}

func TestHasher(t *testing.T) {
	a, b := NewHasher(), NewHasher()
	for _, v := range []uint64{1, 2, 3} {
		a.Mix(v)
		b.Mix(v)
	}
	if a.Sum() != b.Sum() {
		t.Fatal("identical mix sequences hash differently")
	}
	c := NewHasher()
	for _, v := range []uint64{3, 2, 1} {
		c.Mix(v)
	}
	if c.Sum() == a.Sum() {
		t.Fatal("hash is order-insensitive; schedule permutations would collide")
	}
	d, e := NewHasher(), NewHasher()
	d.MixString("ab")
	e.MixString("ba")
	if d.Sum() == e.Sum() {
		t.Fatal("MixString is order-insensitive")
	}
}

func TestStateHashReactsToFabric(t *testing.T) {
	_, top, s := newNet(t)
	h0 := s.StateHash64()
	if s.StateHash64() != h0 {
		t.Fatal("state hash is not stable over an untouched simulator")
	}
	lk := top.AccessLink(0, 0, 0)
	s.FailCable(lk)
	hDown := s.StateHash64()
	if hDown == h0 {
		t.Fatal("failing a cable did not change the state hash")
	}
	s.RecoverCable(lk)
	if s.StateHash64() == hDown {
		t.Fatal("recovering the cable did not change the state hash")
	}
}

// record drives one empty but valid window through the recorder.
func record(t *testing.T, eng *sim.Engine, r *Recorder, fp uint64) {
	t.Helper()
	if w := r.Lookup(fp); w != nil {
		t.Fatal("fingerprint already cached")
	}
	r.BeginRecord(fp)
	r.BeginLive(eng.Now(), 0.01)
	r.EndLive()
	r.FinalizeRecord()
}

func TestRecordLookupInvalidate(t *testing.T) {
	eng, top, s := newNet(t)
	r := Attach(s)
	if RecorderOf(s) != r {
		t.Fatal("RecorderOf does not find the attached recorder")
	}

	const fp = 42
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d windows after a valid recording, want 1", len(r.cache))
	}
	if w := r.Lookup(fp); w == nil {
		t.Fatal("valid recorded window does not hit")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Any fabric transition drops the cache.
	s.FailCable(top.AccessLink(0, 0, 0))
	if len(r.cache) != 0 {
		t.Fatal("link failure did not drop the memo cache")
	}
	if r.Stats().Invalidations == 0 {
		t.Fatal("link failure counted no invalidation")
	}
	if w := r.Lookup(fp); w != nil {
		t.Fatal("stale window survives a fabric transition")
	}
}

func TestBeginRecordDeclinesWithActiveFlows(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)
	if _, err := s.StartFlow(route.Endpoint{Host: 0, NIC: 0}, route.Endpoint{Host: 1, NIC: 0},
		1<<20, netsim.FlowOpts{SrcPort: -1}); err != nil {
		t.Fatal(err)
	}

	const fp = 7
	record(t, eng, r, fp)
	if len(r.cache) != 0 {
		t.Fatal("window recorded while flows were in flight")
	}
	eng.Run() // drain the flow; the window is now clean
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatal("clean window after the flows drained was not recorded")
	}
}

func TestFinalizeDiscardsOnMidWindowSchedule(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)

	r.BeginRecord(3)
	// An event armed mid-window means replay would skip real work:
	// the recording must be discarded, not cached.
	eng.Schedule(sim.Millisecond, func() {})
	r.BeginLive(eng.Now(), 0.01)
	r.EndLive()
	r.FinalizeRecord()
	if len(r.cache) != 0 {
		t.Fatal("window with a mid-window scheduled event was cached")
	}
}

func TestLookupBlockedByPendingEvent(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)

	const fp = 11
	record(t, eng, r, fp)
	if len(r.cache) != 1 {
		t.Fatal("setup: window not recorded")
	}
	// A pending event inside (or at the exact end of) the would-be window
	// must block replay: in a live run it would fire first.
	eng.Schedule(0, func() {})
	if w := r.Lookup(fp); w != nil {
		t.Fatal("replay allowed over a pending event")
	}
	if r.Stats().Blocked == 0 {
		t.Fatal("blocked lookup not counted")
	}
}

// flowEvents is a subscriber that keeps every FlowRouted/FlowDone event
// it receives, with the flow and hops copied (both are valid only during
// the call on replay).
type flowEvents struct{ evs []netsim.Event }

func (c *flowEvents) Observe(e netsim.Event) {
	if e.Kind != netsim.FlowRouted && e.Kind != netsim.FlowDone {
		return
	}
	f := *e.Flow
	e.Flow = &f
	e.Hops = append([]route.HopDecision(nil), e.Hops...)
	c.evs = append(c.evs, e)
}

// TestReplayFeedsOtherSubscribers records a window with two flows, then
// replays it later: a second subscriber (attached after the recorder)
// must receive exactly the recorded flow events, shifted in time and flow
// ID, and the recorder must receive none of them.
func TestReplayFeedsOtherSubscribers(t *testing.T) {
	eng, _, s := newNet(t)
	r := Attach(s)
	c := &flowEvents{}
	s.Subscribe(c)

	const fp = 5
	t0, id0 := eng.Now(), s.NextFlowID()
	r.BeginRecord(fp)
	for i := 0; i < 2; i++ {
		if _, err := s.StartFlow(route.Endpoint{Host: 2 * i, NIC: 0}, route.Endpoint{Host: 2*i + 1, NIC: 0},
			1<<20, netsim.FlowOpts{SrcPort: -1, Sport: uint16(50000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	r.BeginLive(eng.Now(), 0.01)
	r.EndLive()
	r.FinalizeRecord()
	if len(r.cache) != 1 {
		t.Fatal("setup: window not recorded")
	}
	live := c.evs
	if len(live) != 4 {
		t.Fatalf("recorded window delivered %d flow events, want 2 routed + 2 done", len(live))
	}
	if live[0].Kind != netsim.FlowRouted || len(live[0].Hops) == 0 {
		t.Fatalf("first recorded event = %v with %d hops, want FlowRouted with its hash decisions", live[0].Kind, len(live[0].Hops))
	}

	// Move the clock and the flow-ID cursor, so the replay's shifts are
	// not zero.
	eng.Schedule(sim.Second, func() {})
	eng.Run()
	s.AdvanceFlowIDs(10)
	dt, did := eng.Now()-t0, s.NextFlowID()-id0

	w := r.Lookup(fp)
	if w == nil {
		t.Fatal("recorded window does not hit")
	}
	c.evs = nil
	// A recording open across the replay would capture anything the
	// replay fed back to the recorder.
	r.BeginRecord(fp + 1)
	r.Replay(w, nil)
	if got := len(r.rec.obs1) + len(r.rec.obs2); got != 0 {
		t.Fatalf("replay fed %d flow events back to the recorder", got)
	}
	if len(c.evs) != len(live) {
		t.Fatalf("replay delivered %d flow events, want %d", len(c.evs), len(live))
	}
	for i, got := range c.evs {
		want := live[i]
		if got.Kind != want.Kind || got.At != want.At+dt ||
			got.Flow.ID != want.Flow.ID+did || got.Flow.Tuple != want.Flow.Tuple ||
			got.Flow.StartedAt != want.Flow.StartedAt+dt || got.Flow.DoneAt != want.Flow.DoneAt+dt {
			t.Errorf("event %d = %v at %v flow %d [%v, %v], want %v at %v flow %d [%v, %v]", i,
				got.Kind, got.At, got.Flow.ID, got.Flow.StartedAt, got.Flow.DoneAt,
				want.Kind, want.At+dt, want.Flow.ID+did, want.Flow.StartedAt+dt, want.Flow.DoneAt+dt)
		}
		if len(got.Hops) != len(want.Hops) {
			t.Fatalf("event %d carries %d hops, recorded %d", i, len(got.Hops), len(want.Hops))
		}
		for j := range got.Hops {
			if got.Hops[j] != want.Hops[j] {
				t.Errorf("event %d hop %d = %+v, recorded %+v", i, j, got.Hops[j], want.Hops[j])
			}
		}
	}
}
