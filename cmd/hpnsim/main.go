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
	"os"
	"strings"

	"hpn"
)

func main() {
	var obs hpn.RunOptions
	obs.Bind(flag.CommandLine, "hpnsim")
	var (
		arch  = flag.String("arch", "hpn", "hpn | dcn")
		model = flag.String("model", "llama-13b", "llama-7b | llama-13b | gpt-175b")
		hosts = flag.Int("hosts", 16, "hosts (8 GPUs each)")
		tp    = flag.Int("tp", 8, "tensor parallelism")
		pp    = flag.Int("pp", 1, "pipeline parallelism")
		iters = flag.Int("iters", 5, "iterations to simulate")
		pods  = flag.Int("pods", 1, "pods: >1 simulates each pod on its own engine shard under the conservative-window coordinator (-arch hpn only); every pod runs its own -hosts job plus a cross-pod gradient exchange")
	)
	flag.Parse()

	if err := checkShape(*hosts, *tp, *pp, *iters, *pods); err != nil {
		obs.Exit(&hpn.UsageError{Err: err})
	}
	if err := obs.Start(); err != nil {
		obs.Exit(err)
	}
	hub := obs.NewHub(hpn.DefaultTelemetryOptions(), false)

	var m hpn.ModelSpec
	switch strings.ToLower(*model) {
	case "llama-7b":
		m = hpn.LLaMa7B
	case "llama-13b":
		m = hpn.LLaMa13B
	case "gpt-175b":
		m = hpn.GPT175B
	default:
		obs.Exit(hpn.Usagef("unknown model %q", *model))
	}

	par := hpn.Parallelism{TP: *tp, PP: *pp, DP: *hosts * 8 / (*tp * *pp)}

	if *pods > 1 {
		if *arch != "hpn" {
			obs.Exit(hpn.Usagef("sharded multi-pod runs support -arch hpn only, got %q", *arch))
		}
		runSharded(&obs, hub, m, par, *pods, *hosts, *iters)
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
		obs.Exit(hpn.Usagef("unknown arch %q", *arch))
	}
	if err != nil {
		obs.Exit(err)
	}
	if obs.Inband != "" {
		// The per-hop stream is exported alongside the completed-flow log.
		c.Net.EnableFlowLog()
	}

	placed, err := c.PlaceJob(*hosts)
	if err != nil {
		obs.Exit(err)
	}
	job, err := hpn.NewJob(m, par, placed)
	if err != nil {
		obs.Exit(err)
	}
	tr, err := hpn.NewTrainer(c, job)
	if err != nil {
		obs.Exit(err)
	}

	fmt.Printf("%s on %s: %d GPUs (TP=%d PP=%d DP=%d), %d segments\n",
		m.Name, c.Arch, par.GPUs(), par.TP, par.PP, par.DP, c.SegmentsSpanned(placed))
	if err := tr.Start(*iters); err != nil {
		obs.Exit(err)
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
	if err := obs.Finish(nil); err != nil {
		obs.Exit(err)
	}
}

// runSharded is the -pods > 1 path: one engine shard per pod under the
// conservative-window coordinator, one training job per pod, and the
// cross-pod gradient exchange on the global domain.
func runSharded(obs *hpn.RunOptions, hub *hpn.TelemetryHub, m hpn.ModelSpec, par hpn.Parallelism,
	pods, hosts, iters int) {
	segHosts := hosts
	if segHosts > 128 {
		segHosts = 128
	}
	segments := (hosts + segHosts - 1) / segHosts
	sc, err := hpn.NewShardedHPN(hpn.MultiPodHPN(pods, segments, segHosts, 16), hub)
	if err != nil {
		obs.Exit(err)
	}
	if obs.Inband != "" {
		sc.Global.Net.EnableFlowLog()
		for _, pc := range sc.Pods {
			pc.Net.EnableFlowLog()
		}
	}
	st, err := hpn.NewShardedTrainer(sc, m, par)
	if err != nil {
		obs.Exit(err)
	}
	fmt.Printf("%s on %s: %d pods x %d GPUs (TP=%d PP=%d DP=%d)\n",
		m.Name, sc.Arch, pods, par.GPUs(), par.TP, par.PP, par.DP)
	if err := st.Start(iters); err != nil {
		obs.Exit(err)
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

	// The flat trace file carries the global domain's process; the per-pod
	// traces land as c2_trace.json, ... in the artifact dirs.
	if err := obs.Finish(sc.WriteArtifacts); err != nil {
		obs.Exit(err)
	}
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
