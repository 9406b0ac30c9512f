// Command perfbench is the repository benchmark. It builds one training
// workload from the simulator's library API, sets it up and runs it over
// and over for a fixed host-time budget, checks the simulated results, and
// prints one JSON result line: end-to-end host-time metrics, or with
// -trace 1 the per-layer breakdown from profiled runs. README.md describes
// the workloads and every metric.
//
//	go run . -workload dense-train -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// The benchmark runs Go code on one OS thread. On a shared 2-vCPU host a
// second thread measures the neighbours: every ParallelFill merge and shard
// window barrier then waits for whichever vCPU the host has lent away. With
// two threads, repetitions of multipod-longhaul varied 2x within one run.
// ParallelFill and the sharded engine still fan out to fanOut goroutines,
// so their parallel code paths (spawn, merge, barrier, mailbox exchange)
// run and are timed; the goroutines share the one thread.
const (
	maxProcs = 1
	fanOut   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dense-train, flap-observed or multipod-longhaul")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: profile alternate repetitions and report per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for artifacts written while measuring (removed again)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: fanOut, scratch: *scratch}

	inv, err := measure(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := report(inv, opt)
	reps := inv.reps
	fp, err := json.Marshal(hostFingerprint())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	untraced := collect(reps, false, func(r *repResult) float64 { return 1 })
	fmt.Fprintf(stdout, "host %s\n", fp)
	fmt.Fprintf(stdout, "workload=%s seed=%d repetitions=%d (traced %d) set-ups=%d segments=%d operations=%d\n",
		w.name, opt.seed, len(reps), len(reps)-len(untraced), len(inv.setups), len(reps[0].segS), len(reps[0].ops))
	fmt.Fprintf(stdout, "digest %016x %s\n", reps[0].digest, reps[0].summary)
	if res.err != nil {
		fmt.Fprintln(stdout, "incorrect:", res.err)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// minSetups is the least number of extra set-ups, built and dropped, that
// every invocation times before its first repetition. A run of long
// repetitions would otherwise give setup_s too few samples for a steady
// minimum.
const minSetups = 8

// measure repeats the workload until the budget is spent. Before each
// repetition it times extra set-ups (built and dropped) until they have
// taken a fiftieth of the time so far, so set-up samples are spread over
// the whole budget. An untraced invocation ends with one profiled repetition
// outside the budget, so every invocation compares a traced digest with
// the untraced ones; a traced invocation alternates untraced and profiled
// repetitions throughout.
func measure(w workload, opt options) (*invocation, error) {
	start := hostNow()
	var (
		setups     []float64
		setupsTime float64
		reps       []*repResult
	)
	for i := 0; ; i++ {
		for len(setups) < minSetups || setupsTime < secondsSince(start)/50 {
			ctx := &setupCtx{seed: opt.seed, tiny: opt.tiny, workers: opt.workers, spans: spans{}}
			t := hostNow()
			runtime.GC()
			t1 := hostNow()
			if _, err := w.setup(ctx); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			setups = append(setups, secondsSince(t1))
			setupsTime += secondsSince(t)
		}
		r, err := once(w, opt, opt.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if !r.traced {
			setups = append(setups, r.setupS)
		}
		if secondsSince(start) >= opt.seconds && (!opt.trace || i >= 1) {
			break
		}
	}
	inv := &invocation{reps: reps, setups: setups}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("reading peak memory: %w", err)
	}
	inv.peakRSSKB = ru.Maxrss
	if !opt.trace {
		r, err := once(w, opt, true)
		if err != nil {
			return nil, err
		}
		inv.reps = append(inv.reps, r)
	}
	return inv, nil
}

// invocation is everything one benchmark invocation measured.
type invocation struct {
	reps   []*repResult
	setups []float64
	// peakRSSKB is the process's peak resident memory (KiB) over the
	// set-ups and the budgeted repetitions.
	peakRSSKB int64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's schema.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out output
	err error
}

// report reduces the repetitions to the result line.
//
// End-to-end host times are taken from untraced repetitions, piece by
// piece, at their fastest. On a shared 2-vCPU host the neighbours slow
// this process by up to 1.6x in bursts of tens of milliseconds, and their
// share of the time drifts over minutes, so any statistic of whole
// repetitions drifts with it: medians of run_s moved by 20-30% between
// invocations. Every repetition does the same work in the same segments
// and operations (checked), so run_s is the sum over segments of each
// segment's fastest repetition, and each operation's time is the sum of
// its segments so taken. setup_s is the fastest set-up.
// allocs_per_flow is a median. Per-layer times are medians over profiled
// repetitions; work counters are the (identical) counts of one repetition.
func report(inv *invocation, opt options) result {
	reps := inv.reps
	res := result{out: output{Correct: true, Metrics: map[string]metric{}}}
	for _, r := range reps {
		res.out.Attempted += r.attempted
		res.out.Failed += r.failed
		if r.checkErr != nil && res.err == nil {
			res.err = r.checkErr
		}
	}
	if res.err == nil {
		res.err = consistent(reps)
	}
	if res.err != nil {
		res.out.Correct = false
		res.out.Failed = res.out.Attempted
	}
	if res.out.Attempted == 0 {
		res.out.Attempted, res.out.Failed = 1, 1
	}
	set := func(name string, v float64, unit string) { res.out.Metrics[name] = metric{v, unit} }
	untraced := func(f func(*repResult) float64) float64 { return median(collect(reps, false, f)) }
	traced := func(f func(*repResult) float64) float64 { return median(collect(reps, true, f)) }
	runS := untraced(func(r *repResult) float64 { return r.runS })

	if !opt.trace {
		var segs [][]float64
		for _, r := range reps {
			if !r.traced {
				segs = append(segs, r.segS)
			}
		}
		fastSegs := fastest(segs)
		fastRunS := 0.0
		for _, v := range fastSegs {
			fastRunS += v
		}
		fastOps := opsMS(fastSegs, reps[0].ops)
		// Every repetition completes the same flows (checked above).
		set("setup_s", slices.Min(inv.setups), "s")
		set("run_s", fastRunS, "s")
		set("flows_per_s", reps[0].flows/fastRunS, "1/s")
		set("op_ms_p50", quantile(fastOps, 0.5), "ms")
		set("op_ms_p90", quantile(fastOps, 0.9), "ms")
		set("allocs_per_flow", untraced(func(r *repResult) float64 { return float64(r.allocs) / r.flows }), "count")
		set("peak_rss_mb", float64(inv.peakRSSKB)/1024, "MB")
		return res
	}

	// Work counters: identical across repetitions (checked above), so any
	// profiled repetition's values are the counts.
	var ref *repResult
	for _, r := range reps {
		if r.traced {
			ref = r
			break
		}
	}
	for _, name := range []string{
		"sim.events", "sim.windows", "sim.exchanged",
		"netsim.recomputes", "netsim.heap_ops", "netsim.flows", "netsim.reroute_passes",
		"netsim.topology_events", "netsim.stalled_end",
		"collective.ops", "collective.rounds",
		"memo.hits", "memo.misses", "memo.blocked", "memo.invalidations", "memo.replayed_iters",
		"health.incidents", "inband.records", "inband.dropped", "telemetry.trace_events",
		"rdma.probes",
	} {
		set(name, ref.counters[name], "count")
	}
	c := ref.counters
	set("netsim.flows_per_recompute", ratio(c["netsim.flows"], c["netsim.recomputes"]), "ratio")
	set("memo.hit_ratio", ratio(c["memo.hits"], c["memo.hits"]+c["memo.misses"]), "ratio")
	set("sim.ns_per_event", ratio(runS*1e9, c["sim.events"]), "ns")

	for _, name := range []string{"core.build_s", "core.place_s", "collective.setup_s"} {
		set(name, untraced(func(r *repResult) float64 { return r.spans[name] }), "s")
	}
	phase := func(name string) func(*repResult) float64 {
		return func(r *repResult) float64 { return float64(r.phases[name].WallNS) / 1e9 }
	}
	for name, ph := range map[string]string{
		"netsim.recompute_s":     "netsim/recompute",
		"netsim.decompose_s":     "netsim/decompose",
		"netsim.fill_s":          "netsim/fill",
		"netsim.merge_wait_s":    "netsim/merge_wait",
		"memo.lookup_s":          "memo/lookup",
		"memo.replay_s":          "memo/replay",
		"sim.window_sync_s":      "sim/window_sync",
		"sim.mailbox_exchange_s": "sim/mailbox_exchange",
	} {
		set(name, traced(phase(ph)), "s")
	}
	// residual_s is the part of the profiled run no prof phase covers.
	// Only top-level phases are subtracted: recompute contains decompose,
	// fill and merge_wait, and window_sync contains the shard engines'
	// whole windows.
	tracedRunS := traced(func(r *repResult) float64 { return r.runS })
	residual := traced(func(r *repResult) float64 {
		covered := 0.0
		for _, ph := range []string{"netsim/recompute", "memo/lookup", "memo/replay", "sim/mailbox_exchange"} {
			covered += phase(ph)(r)
		}
		return r.runS - covered
	})
	set("residual_s", residual, "s")
	set("residual_share", ratio(residual, tracedRunS), "ratio")
	set("run_s_traced", tracedRunS, "s")
	set("run_s_untraced", runS, "s")
	set("trace_overhead", ratio(tracedRunS, runS)-1, "ratio")
	set("go.gc_cycles", untraced(func(r *repResult) float64 { return float64(r.gcCycles) }), "count")
	set("go.gc_pause_s", untraced(func(r *repResult) float64 { return r.gcPauseS }), "s")
	set("telemetry.artifact_s", untraced(func(r *repResult) float64 { return r.artifactS }), "s")
	set("telemetry.artifact_bytes", untraced(func(r *repResult) float64 { return float64(r.artifactBytes) }), "bytes")
	set("op_samples", float64(len(reps[0].ops)), "count")
	return res
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  procField("/proc/cpuinfo", "model name"),
		"kernel":     strings.TrimSpace(procField("/proc/sys/kernel/osrelease", "")),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or the whole file when key is empty; "unknown" when unreadable.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	if key == "" {
		return string(data)
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
