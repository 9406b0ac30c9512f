package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

func tinyOptions(t *testing.T, workers int) options {
	return options{seed: 7, tiny: true, workers: workers, scratch: t.TempDir()}
}

func mustOnce(t *testing.T, w workload, opt options, traced bool) *repResult {
	t.Helper()
	r, err := once(w, opt, traced)
	if err != nil {
		t.Fatal(err)
	}
	if r.checkErr != nil {
		t.Fatalf("traced=%v: %v", traced, r.checkErr)
	}
	return r
}

// TestRepeatable runs every workload at a tiny size twice untraced and once
// profiled: digests and work counters must agree across all three.
func TestRepeatable(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := tinyOptions(t, 2)
			reps := []*repResult{mustOnce(t, w, opt, false), mustOnce(t, w, opt, false), mustOnce(t, w, opt, true)}
			if err := consistent(reps); err != nil {
				t.Fatal(err)
			}
			if reps[0].attempted == 0 || reps[0].flows == 0 {
				t.Fatalf("tiny run did no work: %d operations, %g flows", reps[0].attempted, reps[0].flows)
			}
		})
	}
}

// TestMultipodWorkers checks that parallel shard windows change nothing
// simulated: one worker and two give the same digest and counters.
func TestMultipodWorkers(t *testing.T) {
	w, _ := findWorkload("multipod-longhaul")
	one := mustOnce(t, w, tinyOptions(t, 1), false)
	two := mustOnce(t, w, tinyOptions(t, 2), false)
	if err := consistent([]*repResult{one, two}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedChangesInputs checks that the seed reaches the simulator: two
// seeds give two different runs.
func TestSeedChangesInputs(t *testing.T) {
	w, _ := findWorkload("flap-observed")
	a := mustOnce(t, w, tinyOptions(t, 2), false)
	opt := tinyOptions(t, 2)
	opt.seed++
	b := mustOnce(t, w, opt, false)
	if a.digest == b.digest {
		t.Fatalf("seeds %d and %d gave the same digest %016x", opt.seed-1, opt.seed, a.digest)
	}
}

// TestMismatchDetected checks that the consistency check fails on a
// diverging digest or work counter.
func TestMismatchDetected(t *testing.T) {
	w, _ := findWorkload("flap-observed")
	opt := tinyOptions(t, 2)
	a, b := mustOnce(t, w, opt, false), mustOnce(t, w, opt, false)
	b.digest++
	if consistent([]*repResult{a, b}) == nil {
		t.Fatal("diverging digests passed the consistency check")
	}
	b.digest--
	b.counters["netsim.recomputes"]++
	if consistent([]*repResult{a, b}) == nil {
		t.Fatal("diverging work counters passed the consistency check")
	}
	b.counters["netsim.recomputes"]--
	b.segS = b.segS[1:]
	if consistent([]*repResult{a, b}) == nil {
		t.Fatal("diverging segment counts passed the consistency check")
	}
}

// TestFastestSegments checks the end-to-end reduction: run_s sums each
// segment's fastest repetition, and an operation is the sum of its
// segments so taken.
func TestFastestSegments(t *testing.T) {
	segs := fastest([][]float64{{0.003, 0.001, 0.004}, {0.002, 0.005, 0.001}})
	if want := []float64{0.002, 0.001, 0.001}; !slices.Equal(segs, want) {
		t.Fatalf("fastest segments %v, want %v", segs, want)
	}
	ms := opsMS(segs, [][2]int{{0, 2}, {2, 3}})
	if len(ms) != 2 || math.Abs(ms[0]-3) > 1e-9 || math.Abs(ms[1]-1) > 1e-9 {
		t.Fatalf("operation ms %v, want [3 1]", ms)
	}
}

// TestReportMatchesBenchmarkJSON checks that an untraced invocation reports
// exactly the end_to_end metrics BENCHMARK.json declares, a traced one
// exactly the per_layer metrics, each with its declared unit.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Work {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	w, _ := findWorkload("flap-observed")
	opt := tinyOptions(t, 2)
	reps := []*repResult{mustOnce(t, w, opt, false), mustOnce(t, w, opt, true)}
	for _, tc := range []struct {
		trace bool
		decls []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		opt.trace = tc.trace
		res := report(&invocation{reps: reps, setups: []float64{reps[0].setupS}, peakRSSKB: 1}, opt)
		if res.err != nil || !res.out.Correct {
			t.Fatalf("trace=%v: incorrect: %v", tc.trace, res.err)
		}
		var want []string
		for _, d := range tc.decls {
			want = append(want, d.Name)
			if m, ok := res.out.Metrics[d.Name]; ok && m.Unit != d.Unit {
				t.Errorf("trace=%v: %s reported in %q, declared %q", tc.trace, d.Name, m.Unit, d.Unit)
			}
		}
		sort.Strings(want)
		if got := sortedKeys(res.out.Metrics); !slices.Equal(got, want) {
			t.Errorf("trace=%v: reported metrics %v, BENCHMARK.json declares %v", tc.trace, got, want)
		}
	}
}
