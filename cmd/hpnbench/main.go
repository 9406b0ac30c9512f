// Command hpnbench regenerates the tables and figures of "Alibaba HPN: A
// Data Center Network for Large Language Model Training" (SIGCOMM 2024)
// from the hpnsim reproduction.
//
// Usage:
//
//	hpnbench -list                 # enumerate experiments
//	hpnbench -exp fig15            # run one experiment (quick scale)
//	hpnbench -exp all -scale full  # run everything at paper scale
//
// Each experiment prints the rows/series the paper reports plus a
// paper-vs-measured claim table; the exit status is non-zero if any claim
// fails to hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"hpn"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale    = flag.String("scale", "quick", "quick | full")
		list     = flag.Bool("list", false, "list experiments and exit")
		csvDir   = flag.String("csv", "", "also dump recorded time series as CSV into this directory")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON covering every cluster built (one trace process each)")
		promOut  = flag.String("metrics", "", "write Prometheus-text metrics to this file")
		inbandTo = flag.String("inband", "", "enable in-band path telemetry on every cluster; write the per-hop inband.tsv/json (and other registry artifacts) into this directory after the sweep")
		healthTo = flag.String("health", "", "enable online fabric health monitoring on every cluster; write the incidents.tsv/json causal timelines (render with hpndoctor) into this directory after the sweep")
		benchOut = flag.String("benchout", "", "write a BENCH_<stamp>.json perf snapshot (scenario, ns/op, allocs, flows/sec) into this directory")
		compare  = flag.Bool("compare", false, "compare two BENCH snapshots: hpnbench -compare old.json new.json")
		tol      = flag.Float64("tolerance", 0.10, "with -compare: flows/sec may drop by this fraction before a scenario counts as regressed")
		useMemo  = flag.String("memo", "off", "iteration memoization on every cluster: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with sharded experiments)")
		profTo   = flag.String("prof", "", "enable engine self-profiling on every cluster; write prof.tsv/json (render with hpnprof) and flight.tsv into this directory after the sweep")
		cpuOut   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole sweep to this file")
		memOut   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	memoOn := false
	switch *useMemo {
	case "on":
		memoOn = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "hpnbench: -memo must be on or off, got %q\n", *useMemo)
		os.Exit(2)
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "hpnbench: -compare needs exactly two snapshot paths: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *tol, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: compare: %v\n", err)
			os.Exit(2)
		}
		if regressed > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range hpn.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var hub *hpn.TelemetryHub
	if *traceOut != "" || *promOut != "" || *inbandTo != "" || *healthTo != "" || *benchOut != "" || *profTo != "" || memoOn {
		opt := hpn.DefaultTelemetryOptions()
		opt.Trace = *traceOut != ""
		opt.Inband = *inbandTo != ""
		opt.Health = *healthTo != ""
		opt.Memo = memoOn
		opt.Prof = *profTo != ""
		// Experiments build many clusters; bound the trace and the in-band
		// stream so a full sweep cannot exhaust memory.
		opt.MaxTraceEvents = 2_000_000
		opt.InbandMax = 2_000_000
		if *traceOut == "" && *promOut == "" && *inbandTo == "" && *healthTo == "" {
			// -benchout and/or -prof alone: counters only, no sampler
			// daemons perturbing the measured runs — the self-profiler
			// accumulates at instrumentation points and needs no periodic
			// ticks, and a perf measurement should not pay for sampling
			// nobody asked for.
			opt.SampleInterval = 0
		}
		if memoOn && opt.SampleInterval != 0 {
			// The sampler's periodic daemon tick would land inside every
			// candidate window and block memoization entirely.
			opt.SampleInterval = 0
			fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
		}
		hub = hpn.EnableDefaultTelemetry(opt)
	}

	var s hpn.Scale
	switch *scale {
	case "quick":
		s = hpn.ScaleQuick
	case "full":
		s = hpn.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "hpnbench: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}

	var ids []string
	if *exp == "all" {
		for _, e := range hpn.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{*exp}
	}

	failed := 0
	var bench []benchEntry
	for _, id := range ids {
		flows0 := flowsCompleted(hub)
		allocs0 := mallocs()
		// Wall-clock timing of the whole experiment run for the operator's
		// benefit; it never feeds simulator state or run artifacts.
		start := time.Now() //hpnlint:allow wallclock -- CLI run timing, printed only
		r, err := hpn.Run(id, s)
		wall := time.Since(start) //hpnlint:allow wallclock -- CLI run timing, printed only
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: %s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(r.String())
		fmt.Printf("(%s scale, %.2fs)\n\n", *scale, wall.Seconds())
		if *benchOut != "" {
			flows := flowsCompleted(hub) - flows0
			e := benchEntry{
				Scenario: id,
				Scale:    *scale,
				WallNS:   wall.Nanoseconds(),
				Allocs:   mallocs() - allocs0,
				Flows:    int64(flows),
				Holds:    r.Holds(),
			}
			if wall > 0 {
				e.FlowsPerSec = flows / wall.Seconds()
			}
			bench = append(bench, e)
		}
		if *csvDir != "" {
			files, err := r.WriteSeriesCSV(*csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: csv: %v\n", err)
				failed++
			}
			for _, f := range files {
				fmt.Printf("wrote %s\n", f)
			}
		}
		if !r.Holds() {
			failed++
		}
	}
	if *benchOut != "" {
		path, err := writeBenchSnapshot(*benchOut, *scale, bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: benchout: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s\n", path)
		}
	}
	if hub != nil {
		if *traceOut != "" {
			if err := writeFile(*traceOut, func(f *os.File) error {
				_, err := hub.Tracer.WriteTo(f)
				return err
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: trace: %v\n", err)
				failed++
			} else {
				// Drops surface through the shared OverflowWarnings pass
				// below, same as hpnsim.
				fmt.Printf("wrote %s (%d events)\n", *traceOut, hub.Tracer.Events())
			}
		}
		if *promOut != "" {
			if err := writeFile(*promOut, func(f *os.File) error {
				return hub.Registry.WritePrometheus(f)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: metrics: %v\n", err)
				failed++
			} else {
				fmt.Printf("wrote %s\n", *promOut)
			}
		}
		for _, dir := range artifactDirs(*inbandTo, *healthTo, *profTo) {
			paths, err := hub.WriteArtifacts(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpnbench: artifacts: %v\n", err)
				failed++
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		}
		for _, w := range hpn.OverflowWarnings(hub) {
			fmt.Fprintln(os.Stderr, "hpnbench:", w)
		}
	}
	if *memOut != "" {
		if err := writeFile(*memOut, func(f *os.File) error {
			return pprof.Lookup("allocs").WriteTo(f, 0)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "hpnbench: memprofile: %v\n", err)
			failed++
		} else {
			fmt.Printf("wrote %s\n", *memOut)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpnbench: %d experiment(s) with failing claims\n", failed)
		os.Exit(1)
	}
}

// benchEntry is one experiment's row in the BENCH_<stamp>.json snapshot:
// wall-clock ns/op (op = one experiment run at the chosen scale), heap
// allocations, and simulated-flow throughput of the host process.
type benchEntry struct {
	Scenario    string  `json:"scenario"`
	Scale       string  `json:"scale"`
	WallNS      int64   `json:"wall_ns"`
	Allocs      uint64  `json:"allocs"`
	Flows       int64   `json:"flows"`
	FlowsPerSec float64 `json:"flows_per_sec"`
	Holds       bool    `json:"holds"`
}

// benchSnapshot is the top-level BENCH_<stamp>.json document.
type benchSnapshot struct {
	Stamp      string       `json:"stamp"`
	Scale      string       `json:"scale"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Entries    []benchEntry `json:"entries"`
}

// flowsCompleted sums every *netsim_flows_completed_total counter in the
// hub registry (one per attached cluster, prefixed c2_, c3_, ... past the
// first). Returns 0 without a hub.
func flowsCompleted(hub *hpn.TelemetryHub) float64 {
	return hpn.MetricSum(hub, "netsim_flows_completed_total")
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

// mallocs reads the process-lifetime heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// writeBenchSnapshot writes dir/BENCH_<stamp>.json and returns its path.
func writeBenchSnapshot(dir, scale string, entries []benchEntry) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// The stamp names the artifact after the real-world run instant; it is
	// operator metadata, never simulator input.
	stamp := time.Now().UTC().Format("20060102T150405Z") //hpnlint:allow wallclock -- artifact filename stamp
	snap := benchSnapshot{
		Stamp:      stamp,
		Scale:      scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Entries:    entries,
	}
	buf, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+stamp+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func writeFile(path string, write func(*os.File) error) error {
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
