package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hpn"
	"hpn/internal/health"
	"hpn/internal/memo"
	"hpn/internal/prof"
	"hpn/internal/sim"
)

// hostNow reads the host clock. Every timing the benchmark takes goes
// through it.
func hostNow() time.Time {
	return time.Now() //hpnlint:allow wallclock -- host time is what the benchmark measures
}

func secondsSince(t time.Time) float64 { return hostNow().Sub(t).Seconds() }

// spans accumulates the host time of the benchmark's calls into each layer,
// keyed by per-layer metric name.
type spans map[string]float64

func (s spans) time(name string, fn func() error) error {
	t := hostNow()
	err := fn()
	s[name] += secondsSince(t)
	return err
}

// opClock times a run in segments: the host intervals between successive
// boundaries. The boundaries are the run's start and end, every
// operation's completion callback and, on single-engine workloads, every
// engine event. They fall on the same simulated events in every
// repetition, so segment i is the same work in each, and so is operation
// i, which spans a fixed range of segments.
type opClock struct {
	last    time.Time
	seg     []float64 // host seconds per segment
	opFirst int       // first segment of the operation in progress
	ops     [][2]int  // each completed operation's segments [first, end)
}

// segCap is the segment capacity reserved before a run, so that recording
// segments does not allocate inside run_s. It covers every workload: about
// 4k segments on dense-train and 10k on flap-observed.
const segCap = 1 << 14

// start opens the run's first segment and operation.
func (o *opClock) start() { o.last = hostNow() }

// mark closes the current segment.
func (o *opClock) mark() {
	t := hostNow()
	o.seg = append(o.seg, t.Sub(o.last).Seconds())
	o.last = t
}

// split closes the current segment and times the next operation from here.
func (o *opClock) split() {
	o.mark()
	o.opFirst = len(o.seg)
}

// tick closes the current segment and operation.
func (o *opClock) tick() {
	o.mark()
	o.ops = append(o.ops, [2]int{o.opFirst, len(o.seg)})
	o.opFirst = len(o.seg)
}

// opsMS returns each operation's host ms: the sum of its segments.
func opsMS(seg []float64, ops [][2]int) []float64 {
	ms := make([]float64, len(ops))
	for i, op := range ops {
		for _, s := range seg[op[0]:op[1]] {
			ms[i] += s * 1e3
		}
	}
	return ms
}

// runEvents fires the engine's events as Engine.Run does, or as
// RunUntil(until) when until > 0, closing a segment after every event.
// Events take tens of microseconds to a few milliseconds of host time, so
// most segments fit between the host's interruptions.
func runEvents(e *sim.Engine, o *opClock, until sim.Time) {
	for e.PendingWork() > 0 {
		if at, ok := e.NextAt(); !ok || (until > 0 && at > until) {
			break
		}
		e.Step()
		o.mark()
	}
	if until > 0 {
		e.RunUntil(until)
	}
}

// watch chains a tick onto the trainer's iteration callback, keeping any
// callback already installed (the health monitor's attribution).
func (o *opClock) watch(tr *hpn.Trainer) {
	prev := tr.OnIteration
	tr.OnIteration = func(iter int, now sim.Time) {
		o.tick()
		if prev != nil {
			prev(iter, now)
		}
	}
}

// options are one benchmark invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool
	// workers is the fan-out of ParallelFill and of the sharded engine.
	workers int
	scratch string
}

// repResult is one repetition: one set-up and one run of the workload.
type repResult struct {
	traced        bool
	setupS, runS  float64
	spans         spans
	segS          []float64
	ops           [][2]int
	flows         float64
	allocs        uint64
	gcCycles      uint32
	gcPauseS      float64
	artifactS     float64
	artifactBytes int64
	attempted     int
	failed        int
	digest        uint64
	summary       string
	// counters are the deterministic work counters; they must repeat
	// exactly across repetitions, traced or not.
	counters map[string]float64
	phases   map[string]prof.PhaseStat
	// checkErr is the run's correctness failure, if any.
	checkErr error
}

// once sets up and runs the workload one time.
func once(w workload, opt options, traced bool) (*repResult, error) {
	runtime.GC()
	ctx := &setupCtx{seed: opt.seed, tiny: opt.tiny, traced: traced, workers: opt.workers, spans: spans{}}
	t0 := hostNow()
	inst, err := w.setup(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	r := &repResult{traced: traced, setupS: secondsSince(t0), spans: ctx.spans}
	for _, n := range inst.nets {
		n.ParallelFill = opt.workers
	}

	// Every run starts from a collected heap, outside the timed region.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inst.ops.seg = make([]float64, 0, segCap)
	t1 := hostNow()
	inst.ops.start()
	inst.run()
	inst.ops.mark()
	r.runS = secondsSince(t1)
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	// Keep only the segments used, not the reserve: repetitions are kept
	// until the end, and their reserves would show in peak_rss_mb.
	r.segS, r.ops = slices.Clone(inst.ops.seg), inst.ops.ops

	if inst.writeArtifacts {
		if r.artifactS, r.artifactBytes, err = writeArtifacts(inst, opt.scratch); err != nil {
			return nil, fmt.Errorf("%s: artifacts: %w", w.name, err)
		}
	}
	r.attempted, r.failed = inst.attempted(), inst.failed()
	r.checkErr = inst.check()
	r.counters = workCounters(inst)
	r.flows = r.counters["netsim.flows"]
	if traced {
		r.phases = map[string]prof.PhaseStat{}
		for _, ph := range inst.hub.Prof.Snapshot() {
			r.phases[ph.Name] = ph
		}
		r.counters["netsim.heap_ops"] = float64(r.phases["netsim/heap_ops"].Count)
		probes, err := inst.probes()
		if err != nil {
			return nil, fmt.Errorf("%s: counting probes: %w", w.name, err)
		}
		r.counters["rdma.probes"] = float64(probes)
	}
	r.digest, r.summary, err = digest(inst)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// writeArtifacts writes every hub artifact plus the Chrome trace into a
// scratch directory, returning the host time taken and the bytes written.
// The directory is removed afterwards.
func writeArtifacts(inst *instance, scratch string) (float64, int64, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "perfbench-artifacts-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	t := hostNow()
	paths, err := inst.hub.WriteArtifacts(dir)
	if err != nil {
		return 0, 0, err
	}
	tracePath := filepath.Join(dir, "trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return 0, 0, err
	}
	if _, err := inst.hub.Tracer.WriteTo(f); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	secs := secondsSince(t)
	var bytes int64
	for _, p := range append(paths, tracePath) {
		st, err := os.Stat(p)
		if err != nil {
			return 0, 0, err
		}
		bytes += st.Size()
	}
	return secs, bytes, nil
}

// workCounters reads the layers' deterministic work counters.
func workCounters(inst *instance) map[string]float64 {
	c := map[string]float64{}
	for _, e := range inst.engines {
		c["sim.events"] += float64(e.Processed)
	}
	if inst.coord != nil {
		c["sim.windows"] = float64(inst.coord.Windows)
		c["sim.exchanged"] = float64(inst.coord.Exchanged)
	}
	for _, m := range [][2]string{
		{"netsim.recomputes", "netsim_recomputes_total"},
		{"netsim.reroute_passes", "netsim_reroute_passes_total"},
		{"netsim.topology_events", "netsim_topology_events_total"},
		{"collective.ops", "collective_ops_total"},
		{"collective.rounds", "collective_rounds_total"},
	} {
		c[m[0]] = hpn.MetricSum(inst.hub, m[1])
	}
	for _, n := range inst.nets {
		c["netsim.flows"] += float64(n.CompletedFlows)
		c["netsim.stalled_end"] += float64(n.StalledFlows())
		st := memo.RecorderOf(n).Stats()
		c["memo.hits"] += float64(st.Hits)
		c["memo.misses"] += float64(st.Misses)
		c["memo.blocked"] += float64(st.Blocked)
		c["memo.invalidations"] += float64(st.Invalidations)
		c["memo.replayed_iters"] += float64(st.Replayed)
		if m := health.MonitorOf(n); m != nil {
			c["health.incidents"] += float64(len(m.Incidents()))
		}
		if ib := n.Inband(); ib != nil {
			c["inband.records"] += float64(len(ib.Records()))
			c["inband.dropped"] += float64(ib.Dropped())
		}
	}
	c["telemetry.trace_events"] = float64(inst.hub.Tracer.Events())
	return c
}

// digest fingerprints the run's simulated results: every engine's end
// time, flows and bits completed, every registry counter, gauge and
// histogram bucket (FCT and comm-time histograms included) except the
// profiler's host-time gauges, and the workload's own results (iterations,
// samples/s series, AllReduce timings).
func digest(inst *instance) (uint64, string, error) {
	h := memo.NewHasher()
	var end sim.Time
	for _, e := range inst.engines {
		h.Mix(uint64(e.Now()))
		end = max(end, e.Now())
	}
	var flows int64
	var bits float64
	for _, n := range inst.nets {
		h.Mix(uint64(n.CompletedFlows))
		h.Mix(math.Float64bits(n.CompletedBits))
		h.Mix(math.Float64bits(n.AggBits))
		h.Mix(math.Float64bits(n.CoreBits))
		flows += n.CompletedFlows
		bits += n.CompletedBits
	}
	var b strings.Builder
	if err := inst.hub.Registry.WriteJSON(&b); err != nil {
		return 0, "", err
	}
	var reg map[string]float64
	if err := json.Unmarshal([]byte(b.String()), &reg); err != nil {
		return 0, "", err
	}
	names := make([]string, 0, len(reg))
	for name := range reg {
		if !strings.Contains(name, "prof_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h.MixString(name)
		h.Mix(math.Float64bits(reg[name]))
	}
	inst.mix(h)
	sum := fmt.Sprintf("sim_end=%.9fs flows=%d bits=%.6g fct_count=%.0f iterations=%.0f",
		end.Seconds(), flows, bits, hpn.MetricSum(inst.hub, "netsim_fct_seconds_count"),
		hpn.MetricSum(inst.hub, "workload_iterations_total"))
	return h.Sum(), sum, nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// fastest returns, for each index i, the least xs[r][i] over the
// repetitions r: the cost of segment i in the repetition that ran it with
// the least interference. consistent checks that every repetition has the
// same count; on a run that failed that check, indices past a shorter
// repetition's end keep the first repetition's values.
func fastest(xs [][]float64) []float64 {
	out := slices.Clone(xs[0])
	for _, x := range xs[1:] {
		for i := range min(len(out), len(x)) {
			out[i] = min(out[i], x[i])
		}
	}
	return out
}

// collect maps every repetition of the given kind through f.
func collect(reps []*repResult, traced bool, f func(*repResult) float64) []float64 {
	var out []float64
	for _, r := range reps {
		if r.traced == traced {
			out = append(out, f(r))
		}
	}
	return out
}

// consistent reports the first repetition whose digest or work counters
// differ from an earlier repetition's. Counters only profiled repetitions
// read (heap_ops, probes) are compared among those.
func consistent(reps []*repResult) error {
	first := map[string]int{} // counter name -> first repetition reading it
	for i, r := range reps {
		if ref := reps[0]; r.digest != ref.digest {
			return fmt.Errorf("digest of repetition %d (traced=%v) is %016x, repetition 0 (traced=%v) is %016x: %s vs %s",
				i, r.traced, r.digest, ref.traced, ref.digest, r.summary, ref.summary)
		} else if len(r.segS) != len(ref.segS) || !slices.Equal(r.ops, ref.ops) {
			return fmt.Errorf("repetition %d (traced=%v) ran %d segments and %d operations, repetition 0 ran %d and %d, or other segments per operation",
				i, r.traced, len(r.segS), len(r.ops), len(ref.segS), len(ref.ops))
		}
		for _, name := range sortedKeys(r.counters) {
			j, ok := first[name]
			if !ok {
				first[name] = i
				continue
			}
			if got, want := r.counters[name], reps[j].counters[name]; got != want { //hpnlint:allow floateq -- integer work counters must repeat exactly
				return fmt.Errorf("work counter %s of repetition %d (traced=%v) is %g, repetition %d (traced=%v) has %g",
					name, i, r.traced, got, j, reps[j].traced, want)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
