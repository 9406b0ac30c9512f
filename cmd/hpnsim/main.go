// Command hpnsim runs a training job on a simulated fabric and prints the
// per-iteration timeline: the general driver behind the paper's Figure 15
// and 16 style end-to-end comparisons.
//
// Usage:
//
//	hpnsim -arch hpn  -model llama-13b -hosts 16 -iters 5
//	hpnsim -arch dcn  -model gpt-175b  -hosts 72 -tp 8 -pp 8 -iters 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"hpn"
)

func main() {
	var (
		arch     = flag.String("arch", "hpn", "hpn | dcn")
		model    = flag.String("model", "llama-13b", "llama-7b | llama-13b | gpt-175b")
		hosts    = flag.Int("hosts", 16, "hosts (8 GPUs each)")
		tp       = flag.Int("tp", 8, "tensor parallelism")
		pp       = flag.Int("pp", 1, "pipeline parallelism")
		iters    = flag.Int("iters", 5, "iterations to simulate")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		promOut  = flag.String("metrics", "", "write Prometheus-text metrics to this file")
		inbandTo = flag.String("inband", "", "enable in-band path telemetry and write run artifacts (per-hop inband.tsv/json, flow log, samples) into this directory")
		healthTo = flag.String("health", "", "enable online fabric health monitoring and write run artifacts (incidents.tsv/json causal timeline; render with hpndoctor) into this directory")
		useMemo  = flag.String("memo", "off", "iteration memoization: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with -pods)")
		pods     = flag.Int("pods", 1, "pods: >1 simulates each pod on its own engine shard under the conservative-window coordinator (-arch hpn only); every pod runs its own -hosts job plus a cross-pod gradient exchange")
		profTo   = flag.String("prof", "", "enable engine self-profiling and write run artifacts (prof.tsv/json phase breakdown — render with hpnprof — and the flight.tsv incident event ring) into this directory")
		cpuOut   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memOut   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if err := checkShape(*hosts, *tp, *pp, *iters, *pods); err != nil {
		fmt.Fprintln(os.Stderr, "hpnsim:", err)
		os.Exit(2)
	}

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	memoOn := false
	switch *useMemo {
	case "on":
		memoOn = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: -memo must be on or off, got %q\n", *useMemo)
		os.Exit(2)
	}

	var hub *hpn.TelemetryHub
	if *traceOut != "" || *promOut != "" || *inbandTo != "" || *healthTo != "" || *profTo != "" || memoOn {
		opt := hpn.DefaultTelemetryOptions()
		opt.Trace = *traceOut != ""
		opt.Inband = *inbandTo != ""
		opt.Health = *healthTo != ""
		opt.Memo = memoOn
		opt.Prof = *profTo != ""
		if memoOn && opt.SampleInterval != 0 {
			// The sampler's periodic daemon tick would land inside every
			// candidate window and block memoization entirely.
			opt.SampleInterval = 0
			fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
		}
		hub = hpn.EnableDefaultTelemetry(opt)
	}

	var m hpn.ModelSpec
	switch strings.ToLower(*model) {
	case "llama-7b":
		m = hpn.LLaMa7B
	case "llama-13b":
		m = hpn.LLaMa13B
	case "gpt-175b":
		m = hpn.GPT175B
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: unknown model %q\n", *model)
		os.Exit(2)
	}

	par := hpn.Parallelism{TP: *tp, PP: *pp, DP: *hosts * 8 / (*tp * *pp)}
	out := outputs{trace: *traceOut, metrics: *promOut, mem: *memOut,
		dirs: artifactDirs(*inbandTo, *healthTo, *profTo)}

	if *pods > 1 {
		if *arch != "hpn" {
			fmt.Fprintf(os.Stderr, "hpnsim: sharded multi-pod runs support -arch hpn only, got %q\n", *arch)
			os.Exit(2)
		}
		runSharded(hub, m, par, *pods, *hosts, *iters, out, *inbandTo != "")
		return
	}

	var (
		c   *hpn.Cluster
		err error
	)
	switch *arch {
	case "hpn":
		segHosts := *hosts
		if segHosts > 128 {
			segHosts = 128
		}
		segments := (*hosts + segHosts - 1) / segHosts
		c, err = hpn.NewHPN(hpn.SmallHPN(segments, segHosts, 16))
	case "dcn":
		c, err = hpn.NewDCN(hpn.SmallDCN((*hosts + 63) / 64))
	default:
		fmt.Fprintf(os.Stderr, "hpnsim: unknown arch %q\n", *arch)
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	if *inbandTo != "" {
		// The per-hop stream is exported alongside the completed-flow log.
		c.Net.EnableFlowLog(0)
	}

	placed, err := c.PlaceJob(*hosts)
	if err != nil {
		fail(err)
	}
	job, err := hpn.NewJob(m, par, placed)
	if err != nil {
		fail(err)
	}
	tr, err := hpn.NewTrainer(c, job)
	if err != nil {
		fail(err)
	}

	fmt.Printf("%s on %s: %d GPUs (TP=%d PP=%d DP=%d), %d segments\n",
		m.Name, c.Arch, par.GPUs(), par.TP, par.PP, par.DP, c.SegmentsSpanned(placed))
	if err := tr.Start(*iters); err != nil {
		fail(err)
	}
	c.Eng.Run()

	fmt.Printf("%-5s  %-12s  %-12s\n", "iter", "samples/s", "sync (s)")
	for i, p := range tr.Perf.Points {
		fmt.Printf("%-5d  %-12.1f  %-12.4f\n", i+1, p.V, tr.CommSeconds.Points[i].V)
	}
	fmt.Printf("mean samples/s: %.1f\n", tr.MeanSamplesPerSecond())

	if m := hpn.HealthMonitorOf(c); m != nil {
		fmt.Printf("health: %s\n", m.Summary().Verdict())
	}
	if r := hpn.MemoRecorderOf(c); r != nil {
		s := r.Stats()
		fmt.Printf("memo: %d hits, %d misses, %d blocked, %d invalidations, %d/%d iterations replayed\n",
			s.Hits, s.Misses, s.Blocked, s.Invalidations, s.Replayed, tr.Iterations)
	}
	if tr.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "hpnsim: warning: sync-phase launch error (first recorded; count in workload_sync_errors_total): %v\n", tr.FirstErr)
	}
	for _, w := range hpn.OverflowWarnings(hub) {
		fmt.Fprintln(os.Stderr, "hpnsim:", w)
	}

	writeOutputs(hub, out, hub.WriteArtifacts)
}

// runSharded is the -pods > 1 path: one engine shard per pod under the
// conservative-window coordinator, one training job per pod, and the
// cross-pod gradient exchange on the global domain.
func runSharded(hub *hpn.TelemetryHub, m hpn.ModelSpec, par hpn.Parallelism,
	pods, hosts, iters int, out outputs, flowLog bool) {
	segHosts := hosts
	if segHosts > 128 {
		segHosts = 128
	}
	segments := (hosts + segHosts - 1) / segHosts
	sc, err := hpn.NewShardedHPN(hpn.MultiPodHPN(pods, segments, segHosts, 16), hub)
	if err != nil {
		fail(err)
	}
	if flowLog {
		sc.Global.Net.EnableFlowLog(0)
		for _, pc := range sc.Pods {
			pc.Net.EnableFlowLog(0)
		}
	}
	st, err := hpn.NewShardedTrainer(sc, m, par)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s on %s: %d pods x %d GPUs (TP=%d PP=%d DP=%d)\n",
		m.Name, sc.Arch, pods, par.GPUs(), par.TP, par.PP, par.DP)
	if err := st.Start(iters); err != nil {
		fail(err)
	}
	sc.Run()

	fmt.Printf("%-5s  %-12s  %-12s\n", "pod", "samples/s", "iterations")
	for p, tr := range st.Trainers {
		fmt.Printf("%-5d  %-12.1f  %-12d\n", p, tr.MeanSamplesPerSecond(), tr.Iterations)
	}
	fmt.Printf("cross-pod rounds: %d (%.4fs total), windows: %d, cross-domain posts: %d\n",
		st.Rounds, st.CrossSeconds, sc.Coord.Windows, sc.Coord.Exchanged)
	for p, pc := range sc.Pods {
		if hm := hpn.HealthMonitorOf(pc); hm != nil {
			fmt.Printf("pod %d health: %s\n", p, hm.Summary().Verdict())
		}
		if r := hpn.MemoRecorderOf(pc); r != nil {
			s := r.Stats()
			fmt.Printf("pod %d memo: %d hits, %d misses, %d blocked, %d invalidations, %d/%d iterations replayed\n",
				p, s.Hits, s.Misses, s.Blocked, s.Invalidations, s.Replayed, st.Trainers[p].Iterations)
		}
		if st.Trainers[p].FirstErr != nil {
			fmt.Fprintf(os.Stderr, "hpnsim: warning: pod %d sync-phase launch error: %v\n", p, st.Trainers[p].FirstErr)
		}
	}
	if st.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "hpnsim: warning: cross-pod sync launch error: %v\n", st.FirstErr)
	}
	for _, w := range hpn.OverflowWarnings(hub) {
		fmt.Fprintln(os.Stderr, "hpnsim:", w)
	}

	// The flat trace file carries the global domain's process; the per-pod
	// traces land as c2_trace.json, ... in the artifact dirs.
	writeOutputs(hub, out, sc.WriteArtifacts)
}

// checkShape rejects job-shape flags that would divide by zero or
// simulate nothing, before any arithmetic uses them.
func checkShape(hosts, tp, pp, iters, pods int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"hosts", hosts}, {"tp", tp}, {"pp", pp}, {"iters", iters}, {"pods", pods}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if gpus := hosts * 8; gpus%(tp*pp) != 0 {
		return fmt.Errorf("%d GPUs not divisible by tp*pp=%d", gpus, tp*pp)
	}
	return nil
}

// outputs names the files and directories a run writes after it ends.
type outputs struct {
	trace, metrics, mem string
	dirs                []string
}

// writeOutputs writes the requested outputs: the root hub's trace and
// Prometheus metrics, every artifact directory through writeDir (which
// differs between one cluster and a sharded ensemble), then the heap
// profile.
func writeOutputs(hub *hpn.TelemetryHub, out outputs, writeDir func(dir string) ([]string, error)) {
	if hub != nil {
		if out.trace != "" {
			if err := writeFile(out.trace, func(f io.Writer) error {
				_, err := hub.Tracer.WriteTo(f)
				return err
			}); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s (%d events)\n", out.trace, hub.Tracer.Events())
		}
		if out.metrics != "" {
			if err := writeFile(out.metrics, hub.Registry.WritePrometheus); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", out.metrics)
		}
		for _, dir := range out.dirs {
			paths, err := writeDir(dir)
			if err != nil {
				fail(err)
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		}
	}
	if out.mem != "" {
		if err := writeFile(out.mem, func(f io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(f, 0)
		}); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", out.mem)
	}
}

// artifactDirs deduplicates the artifact output directories (both -inband
// and -health dump the full registry artifact set).
func artifactDirs(dirs ...string) []string {
	var out []string
	for _, d := range dirs {
		if d == "" {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hpnsim:", err)
	os.Exit(1)
}
