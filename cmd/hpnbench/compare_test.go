package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, dir, name string, s benchSnapshot) string {
	t.Helper()
	buf, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", benchSnapshot{
		Stamp: "20260101T000000Z", Scale: "quick", GoMaxProcs: 1,
		Entries: []benchEntry{
			{Scenario: "fig13", WallNS: 100e6, Allocs: 1000, Flows: 1000, FlowsPerSec: 10000},
			{Scenario: "fig15", WallNS: 50e6, Allocs: 500, Flows: 500, FlowsPerSec: 10000},
		},
	})
	newPath := writeSnap(t, dir, "new.json", benchSnapshot{
		Stamp: "20260102T000000Z", Scale: "quick", GoMaxProcs: 1,
		Entries: []benchEntry{
			{Scenario: "fig13", WallNS: 200e6, Allocs: 1000, Flows: 1000, FlowsPerSec: 5000},
			{Scenario: "fig15", WallNS: 48e6, Allocs: 480, Flows: 500, FlowsPerSec: 10400},
		},
	})

	var b strings.Builder
	regressed, err := runCompare(oldPath, newPath, 0.10, &b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1 (fig13 halved its throughput)\n%s", regressed, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "fig13") {
		t.Fatalf("output does not flag fig13:\n%s", out)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", benchSnapshot{
		Stamp: "a", Entries: []benchEntry{
			{Scenario: "fig13", WallNS: 100e6, FlowsPerSec: 10000},
		},
	})
	newPath := writeSnap(t, dir, "new.json", benchSnapshot{
		Stamp: "b", Entries: []benchEntry{
			{Scenario: "fig13", WallNS: 105e6, FlowsPerSec: 9500},
		},
	})
	var b strings.Builder
	regressed, err := runCompare(oldPath, newPath, 0.10, &b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0 (5%% drop is inside 10%% tolerance)\n%s", regressed, b.String())
	}
}

func TestCompareDisjointScenarios(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", benchSnapshot{
		Stamp: "a", Entries: []benchEntry{
			{Scenario: "gone", WallNS: 10e6, FlowsPerSec: 100},
			{Scenario: "both", WallNS: 10e6, FlowsPerSec: 100},
		},
	})
	newPath := writeSnap(t, dir, "new.json", benchSnapshot{
		Stamp: "b", Entries: []benchEntry{
			{Scenario: "both", WallNS: 10e6, FlowsPerSec: 100},
			{Scenario: "added", WallNS: 10e6, FlowsPerSec: 100},
		},
	})
	var b strings.Builder
	regressed, err := runCompare(oldPath, newPath, 0.10, &b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0 (one-sided scenarios are not regressions)\n%s", regressed, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "missing from new") || !strings.Contains(out, "new in this") {
		t.Fatalf("one-sided scenarios not reported:\n%s", out)
	}
}

func TestCompareBadInput(t *testing.T) {
	dir := t.TempDir()
	empty := writeSnap(t, dir, "empty.json", benchSnapshot{Stamp: "x"})
	ok := writeSnap(t, dir, "ok.json", benchSnapshot{
		Stamp: "y", Entries: []benchEntry{{Scenario: "fig13", FlowsPerSec: 1}},
	})
	var b strings.Builder
	if _, err := runCompare(empty, ok, 0.10, &b); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := runCompare(filepath.Join(dir, "missing.json"), ok, 0.10, &b); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzLoadSnapshot checks that loadSnapshot and runCompare never panic,
// that every snapshot loadSnapshot accepts survives a JSON rewrite and a
// second load unchanged, and that a snapshot compared with itself never
// regresses.
func FuzzLoadSnapshot(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_20260809T010700Z.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"stamp":"\ud800","entries":[null,{"scenario":"x","flows_per_sec":-1e308,"wall_ns":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := loadSnapshot(path)
		if _, cerr := runCompare(path, path, 0.10, io.Discard); (cerr == nil) != (err == nil) {
			t.Fatalf("loadSnapshot error %v but runCompare error %v", err, cerr)
		}
		if err != nil {
			return
		}
		again, err := loadSnapshot(writeSnap(t, dir, "again.json", *snap))
		if err != nil {
			t.Fatalf("rewritten snapshot does not load: %v", err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("round trip changed the snapshot:\n got  %+v\n want %+v", again, snap)
		}
		if regressed, _ := runCompare(path, path, 0.10, io.Discard); regressed != 0 {
			t.Fatalf("snapshot compared with itself reports %d regression(s)", regressed)
		}
	})
}
