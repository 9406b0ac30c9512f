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
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hpn"
)

// Experiments build many clusters; these caps bound the trace and the
// in-band stream so a full sweep cannot exhaust memory.
const (
	maxTraceEvents = 2_000_000
	maxInbandHops  = 2_000_000
)

func main() {
	var obs hpn.RunOptions
	obs.Bind(flag.CommandLine, "hpnbench")
	var (
		exp      = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale    = flag.String("scale", "quick", "quick | full")
		list     = flag.Bool("list", false, "list experiments and exit")
		csvDir   = flag.String("csv", "", "also dump recorded time series as CSV into this directory")
		benchOut = flag.String("benchout", "", "write a BENCH_<stamp>.json perf snapshot (scenario, ns/op, allocs, flows/sec) into this directory")
		compare  = flag.Bool("compare", false, "compare two BENCH snapshots: hpnbench -compare old.json new.json")
		tol      = flag.Float64("tolerance", 0.10, "with -compare: flows/sec may drop by this fraction before a scenario counts as regressed")
	)
	flag.Parse()

	if err := obs.Start(); err != nil {
		obs.Exit(err)
	}
	if *tol < 0 {
		// Below -1 the regression test old/(1+tol) flips sign and passes
		// every drop.
		obs.Exit(hpn.Usagef("-tolerance must be at least 0, got %g", *tol))
	}

	if *compare {
		if flag.NArg() != 2 {
			obs.Exit(hpn.Usagef("-compare needs exactly two snapshot paths: old.json new.json"))
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *tol, os.Stdout)
		if err != nil {
			// Status 1 means a regression here, so an unreadable
			// snapshot keeps status 2, as in hpnprof -compare.
			obs.Exit(&hpn.UsageError{Err: fmt.Errorf("compare: %w", err)})
		}
		if err := obs.Finish(nil); err != nil {
			obs.Exit(err)
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
		if err := obs.Finish(nil); err != nil {
			obs.Exit(err)
		}
		return
	}

	var s hpn.Scale
	switch *scale {
	case "quick":
		s = hpn.ScaleQuick
	case "full":
		s = hpn.ScaleFull
	default:
		obs.Exit(hpn.Usagef("unknown scale %q (quick|full)", *scale))
	}
	ids, err := experimentIDs(*exp)
	if err != nil {
		obs.Exit(err)
	}

	base := hpn.DefaultTelemetryOptions()
	base.MaxTraceEvents = maxTraceEvents
	base.InbandMax = maxInbandHops
	// -benchout reads flow counts from the hub's registry.
	hub := obs.NewHub(base, *benchOut != "")

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
	err = obs.Finish(nil)
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("%d experiment(s) with failing claims", failed))
	}
	if err != nil {
		obs.Exit(err)
	}
}

// experimentIDs resolves -exp to the experiments to run, rejecting an
// unknown ID before anything runs.
func experimentIDs(exp string) ([]string, error) {
	var ids []string
	for _, e := range hpn.Experiments() {
		if exp == "all" || exp == e.ID {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		var valid []string
		for _, e := range hpn.Experiments() {
			valid = append(valid, e.ID)
		}
		return nil, hpn.Usagef("unknown experiment %q; valid: all, %s", exp, strings.Join(valid, ", "))
	}
	return ids, nil
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
