package main

import (
	"fmt"
	"math"

	"hpn"
	"hpn/internal/collective"
	"hpn/internal/failure"
	"hpn/internal/memo"
	"hpn/internal/netsim"
	"hpn/internal/sim"
	"hpn/internal/telemetry"
)

// workload is one benchmark input family. setup builds a fresh instance from
// the generated inputs; everything it does is counted in setup_s.
type workload struct {
	name  string
	setup func(c *setupCtx) (*instance, error)
}

// workloads lists the benchmark's workloads in the order README.md gives
// them. Each stresses a different layer; see README.md for why.
var workloads = []workload{
	{"dense-train", setupDense},
	{"flap-observed", setupFlap},
	{"multipod-longhaul", setupMultipod},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupCtx is what a workload's set-up receives: the seed its inputs come
// from, the size, whether the repetition is traced (prof on), the shard
// worker count and the span table its layer calls are timed into.
type setupCtx struct {
	seed    uint64
	tiny    bool
	traced  bool
	workers int
	spans   spans
}

// newHub returns the repetition's telemetry hub. Every workload carries a
// registry (the layers' work counters live there); profiling is on only in
// traced repetitions.
func (c *setupCtx) newHub(o telemetry.Options) *telemetry.Hub {
	o.Prof = c.traced
	return telemetry.NewHub(o)
}

// instance is one built workload, ready to run.
type instance struct {
	hub     *telemetry.Hub
	nets    []*netsim.Sim
	engines []*sim.Engine
	coord   *sim.Sharded // nil unless the fabric is sharded
	ops     *opClock
	// run drives the engines; it is the only code inside run_s. The run's
	// first segment and operation open just before it and its last
	// segment closes just after it.
	run func()
	// check asserts that every operation completed and that the
	// workload's paper invariant holds.
	check func() error
	// attempted is the number of operations the run is asked to complete;
	// failed reports how many of them failed (launch or sync errors).
	attempted func() int
	failed    func() int
	// mix adds the workload's simulated results to the digest.
	mix func(h *memo.Hasher)
	// probes counts the RePaC candidate paths examined while establishing
	// the workload's collective groups.
	probes func() (int, error)
	// writeArtifacts, when set, runs after the run and is timed as
	// telemetry.artifact_s.
	writeArtifacts bool
}

// place runs the production placement and then permutes the hosts within
// each segment: the seed decides which hosts form which ring, never which
// segments the job spans. A nil rng keeps the production order.
func place(c *hpn.Cluster, hosts int, rng *sim.RNG) ([]int, error) {
	placed, err := c.PlaceJob(hosts)
	if err != nil || rng == nil {
		return placed, err
	}
	segOf := func(h int) [2]int {
		hh := c.Topo.Hosts[h]
		return [2]int{hh.Pod, hh.Segment}
	}
	for lo := 0; lo < len(placed); {
		hi := lo + 1
		for hi < len(placed) && segOf(placed[hi]) == segOf(placed[lo]) {
			hi++
		}
		run := placed[lo:hi]
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		lo = hi
	}
	return placed, nil
}

// newTrainer places a job of the given model and shape on the cluster and
// builds its trainer, timing placement and trainer set-up as layer spans.
func newTrainer(c *setupCtx, cl *hpn.Cluster, m hpn.ModelSpec, par hpn.Parallelism, rng *sim.RNG) (*hpn.Trainer, error) {
	var hosts []int
	err := c.spans.time("core.place_s", func() (err error) {
		hosts, err = place(cl, par.GPUs()/8, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	var tr *hpn.Trainer
	err = c.spans.time("collective.setup_s", func() error {
		job, err := hpn.NewJob(m, par, hosts)
		if err != nil {
			return err
		}
		tr, err = hpn.NewTrainer(cl, job)
		return err
	})
	return tr, err
}

// twinProbes counts the RePaC probes of a trainer's DP groups. The groups
// are private to the trainer, so they are established again, in the
// trainer's order, on a fresh fabric built by the same constructor; path
// probing depends only on the topology and its hash seeds, so the count is
// the trainer's own.
func twinProbes(build func() (*hpn.Cluster, error), jobs ...*hpn.Job) (int, error) {
	total := 0
	for _, job := range jobs {
		c, err := build()
		if err != nil {
			return 0, err
		}
		for _, hosts := range job.DPGroups() {
			if len(hosts) < 2 {
				continue
			}
			g, err := collective.NewGroup(c.Net, c.CollectiveConfig(), hosts, 8)
			if err != nil {
				return 0, err
			}
			total += g.Probes()
		}
	}
	return total, nil
}

// mixTrainer adds a trainer's completed iterations and its per-iteration
// samples/s series to the digest.
func mixTrainer(h *memo.Hasher, tr *hpn.Trainer) {
	h.Mix(uint64(tr.Iterations))
	for _, p := range tr.Perf.Points {
		h.Mix(math.Float64bits(p.T))
		h.Mix(math.Float64bits(p.V))
	}
}

// trainerCheck reports an incomplete or failed trainer.
func trainerCheck(name string, tr *hpn.Trainer, iters int) error {
	if tr.FirstErr != nil {
		return fmt.Errorf("%s: sync error: %w", name, tr.FirstErr)
	}
	if iters > 0 && tr.Iterations != iters {
		return fmt.Errorf("%s: %d of %d iterations completed", name, tr.Iterations, iters)
	}
	return nil
}

// setupDense is the fig15 quick shape: GPT-175B, TP8/PP8/DP9 on 72 hosts,
// trained on HPN (three segments) and on DCN+. Memo and observability off.
// DCN+ is the fixed baseline, built and placed as fig15 does: the seed
// varies only the HPN side. (Seeding the DCN+ hash and host order too moved
// the allocator's work by ~20% from seed to seed.)
func setupDense(c *setupCtx) (*instance, error) {
	rng := sim.NewRNG(c.seed)
	par, iters := hpn.Parallelism{TP: 8, PP: 8, DP: 9}, 3
	hcfg, dcfg := hpn.SmallHPN(3, 32, 16), hpn.SmallDCN(2)
	if c.tiny {
		par, iters = hpn.Parallelism{TP: 8, PP: 4, DP: 4}, 2
		hcfg, dcfg = hpn.SmallHPN(2, 8, 4), hpn.SmallDCN(1)
	}
	hcfg.Seed = rng.Uint64()
	hub := c.newHub(telemetry.Options{})
	buildHPN := func() (*hpn.Cluster, error) { return hpn.NewHPN(hcfg) }
	buildDCN := func() (*hpn.Cluster, error) { return hpn.NewDCN(dcfg) }
	var hc, dc *hpn.Cluster
	err := c.spans.time("core.build_s", func() (err error) {
		if hc, err = buildHPN(); err != nil {
			return err
		}
		if dc, err = buildDCN(); err != nil {
			return err
		}
		dc.EnableTelemetry(hub)
		hc.EnableTelemetry(hub)
		return nil
	})
	if err != nil {
		return nil, err
	}
	trD, err := newTrainer(c, dc, hpn.GPT175B, par, nil)
	if err != nil {
		return nil, err
	}
	trH, err := newTrainer(c, hc, hpn.GPT175B, par, rng.Fork(2))
	if err != nil {
		return nil, err
	}
	ops := &opClock{}
	ops.watch(trD)
	ops.watch(trH)
	if err := trD.Start(iters); err != nil {
		return nil, err
	}
	if err := trH.Start(iters); err != nil {
		return nil, err
	}
	return &instance{
		hub:     hub,
		nets:    []*netsim.Sim{dc.Net, hc.Net},
		engines: []*sim.Engine{dc.Eng, hc.Eng},
		ops:     ops,
		run: func() {
			// DCN+ first, then HPN, as fig15 runs them; each fabric's first
			// operation is timed from its own start.
			runEvents(dc.Eng, ops, 0)
			ops.split()
			runEvents(hc.Eng, ops, 0)
		},
		check: func() error {
			if err := trainerCheck("dcn+", trD, iters); err != nil {
				return err
			}
			if err := trainerCheck("hpn", trH, iters); err != nil {
				return err
			}
			gain := trH.MeanSamplesPerSecond()/trD.MeanSamplesPerSecond() - 1
			if !c.tiny && !(gain > 0.05 && gain < 0.60) {
				return fmt.Errorf("fig15 end-to-end gain %.1f%% outside the claim bounds (5%%, 60%%)", 100*gain)
			}
			return nil
		},
		attempted: func() int { return 2 * iters },
		failed:    func() int { return syncErrs(trD) + syncErrs(trH) },
		mix: func(h *memo.Hasher) {
			mixTrainer(h, trD)
			mixTrainer(h, trH)
		},
		probes: func() (int, error) {
			d, err := twinProbes(buildDCN, trD.Job)
			if err != nil {
				return 0, err
			}
			h, err := twinProbes(buildHPN, trH.Job)
			return d + h, err
		},
	}, nil
}

// syncErrs is 1 when the trainer hit a launch error (the trainer keeps the
// first; the registry counts all of them).
func syncErrs(tr *hpn.Trainer) int {
	if tr.FirstErr != nil {
		return 1
	}
	return 0
}

// setupFlap is the fig18 shape: LLaMa-7B data-parallel training on a
// dual-ToR HPN while seeded NIC-ToR flap storms hit access links, with memo,
// health monitoring, in-band telemetry and tracing on, to a fixed simulated
// horizon. Artifacts are written after the run.
func setupFlap(c *setupCtx) (*instance, error) {
	rng := sim.NewRNG(c.seed)
	cfg := hpn.SmallHPN(2, 4, 8)
	// Half of fig18's horizon at its storm density: shorter repetitions
	// give each timing segment more samples per run.
	horizon, storms := 150*sim.Second, 10
	if c.tiny {
		horizon, storms = 40*sim.Second, 2
	}
	cfg.Seed = rng.Uint64()
	hub := c.newHub(telemetry.Options{
		Trace:          true,
		MaxTraceEvents: 1 << 17,
		Inband:         true,
		InbandMax:      1 << 15,
		Health:         true,
		Memo:           true,
	})
	var cl *hpn.Cluster
	err := c.spans.time("core.build_s", func() (err error) {
		if cl, err = hpn.NewHPN(cfg); err != nil {
			return err
		}
		cl.EnableTelemetry(hub)
		return nil
	})
	if err != nil {
		return nil, err
	}
	par := hpn.Parallelism{TP: 1, PP: 1, DP: 8 * 8}
	tr, err := newTrainer(c, cl, hpn.LLaMa7B, par, rng.Fork(1))
	if err != nil {
		return nil, err
	}
	ops := &opClock{}
	ops.watch(tr)

	// Each storm flaps one access port of a distinct NIC, so the NIC's
	// other port always stays up: the dual-ToR case of Figure 18. Storms
	// keep Figure 18's cadence (six cycles of 1.5 s down, 0.5 s up) and
	// each starts at a seeded instant inside its own slot of the horizon,
	// so every seed disturbs the fabric for the same total time.
	in := &failure.Injector{Net: cl.Net}
	stormRNG := rng.Fork(2)
	hosts := tr.Job.Hosts
	nics := stormRNG.Perm(len(hosts) * 8)
	const down, up, cycles = 1500 * sim.Millisecond, 500 * sim.Millisecond, 6
	slot := (horizon - 10*sim.Second) / sim.Time(storms)
	for i := 0; i < storms; i++ {
		h, nic := hosts[nics[i]/8], nics[i]%8
		at := 5*sim.Second + sim.Time(i)*slot + sim.Time(stormRNG.Float64()*float64(slot-cycles*(down+up)))
		in.FlapLinkAt(at, cl.Topo.AccessLink(h, nic, stormRNG.Intn(2)), down, up, cycles)
	}
	w := failure.NewWatchdog(cl.Net)
	w.Watch(horizon)
	if err := tr.Start(1 << 30); err != nil {
		return nil, err
	}
	return &instance{
		hub:     hub,
		nets:    []*netsim.Sim{cl.Net},
		engines: []*sim.Engine{cl.Eng},
		ops:     ops,
		run: func() {
			runEvents(cl.Eng, ops, horizon)
		},
		check: func() error {
			if crashed, at := w.Crashed(); crashed {
				return fmt.Errorf("dual-ToR watchdog crashed the job at %v", at)
			}
			if tr.Iterations == 0 {
				return fmt.Errorf("no iteration completed before the %v horizon", horizon)
			}
			return trainerCheck("hpn", tr, 0)
		},
		// The iteration in flight at the horizon is cut by the horizon,
		// not failed: only completed iterations are attempted operations.
		attempted: func() int { return tr.Iterations },
		failed:    func() int { return syncErrs(tr) },
		mix: func(h *memo.Hasher) {
			mixTrainer(h, tr)
			h.Mix(uint64(hub.Tracer.Events()))
		},
		probes: func() (int, error) {
			return twinProbes(func() (*hpn.Cluster, error) { return hpn.NewHPN(cfg) }, tr.Job)
		},
		writeArtifacts: true,
	}, nil
}

// setupMultipod is a 4-pod HPN with one LLaMa-13B job per pod and the
// cross-pod gradient AllReduce on the global domain, run by the sharded
// engine with memo on for hundreds of iterations.
func setupMultipod(c *setupCtx) (*instance, error) {
	rng := sim.NewRNG(c.seed)
	pods, iters := 4, 400
	if c.tiny {
		pods, iters = 2, 12
	}
	cfg := hpn.MultiPodHPN(pods, 1, 8, 4)
	cfg.Seed = rng.Uint64()
	hub := c.newHub(telemetry.Options{Memo: true})
	var sc *hpn.ShardedCluster
	err := c.spans.time("core.build_s", func() (err error) {
		sc, err = hpn.NewShardedHPN(cfg, hub)
		return err
	})
	if err != nil {
		return nil, err
	}
	sc.SetWorkers(c.workers)
	// Placement happens inside NewShardedTrainer (pod-local, segment-first),
	// so it is counted in collective.setup_s; the seed cannot reorder it.
	var st *hpn.ShardedTrainer
	err = c.spans.time("collective.setup_s", func() (err error) {
		st, err = hpn.NewShardedTrainer(sc, hpn.LLaMa13B, hpn.Parallelism{TP: 8, PP: 1, DP: 8})
		return err
	})
	if err != nil {
		return nil, err
	}
	// Pods advance in lockstep through the cross-pod barrier, so pod 0's
	// iterations time the rounds; its callback runs on one shard at a time.
	ops := &opClock{}
	ops.watch(st.Trainers[0])
	if err := st.Start(iters); err != nil {
		return nil, err
	}
	inst := &instance{
		hub:   hub,
		coord: sc.Coord,
		ops:   ops,
		run: func() {
			sc.Run()
		},
		check: func() error {
			if st.FirstErr != nil {
				return fmt.Errorf("cross-pod sync: %w", st.FirstErr)
			}
			for pod, tr := range st.Trainers {
				if err := trainerCheck(fmt.Sprintf("pod %d", pod), tr, iters); err != nil {
					return err
				}
			}
			if st.Rounds != iters {
				return fmt.Errorf("%d of %d cross-pod rounds completed", st.Rounds, iters)
			}
			return nil
		},
		attempted: func() int { return iters },
		failed: func() int {
			n := 0
			for _, tr := range st.Trainers {
				n += syncErrs(tr)
			}
			if st.FirstErr != nil {
				n++
			}
			return n
		},
		mix: func(h *memo.Hasher) {
			for _, tr := range st.Trainers {
				mixTrainer(h, tr)
			}
			h.Mix(uint64(st.Rounds))
			h.Mix(math.Float64bits(st.CrossSeconds))
		},
		probes: func() (int, error) {
			n := st.CrossGroup.Probes()
			var jobs []*hpn.Job
			for _, tr := range st.Trainers {
				jobs = append(jobs, tr.Job)
			}
			p, err := twinProbes(func() (*hpn.Cluster, error) { return hpn.NewHPN(cfg) }, jobs...)
			return n + p, err
		},
	}
	for _, cl := range append([]*hpn.Cluster{sc.Global}, sc.Pods...) {
		inst.nets = append(inst.nets, cl.Net)
		inst.engines = append(inst.engines, cl.Eng)
	}
	return inst, nil
}
