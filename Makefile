GO ?= go

# bench-compare regression budget: flows/sec on this machine may fall this
# fraction below the committed snapshot before the target fails. Generous by
# default because committed baselines come from other hardware; tighten via
# `make bench-compare BENCH_COMPARE_TOLERANCE=0.1` when comparing like for
# like.
BENCH_COMPARE_TOLERANCE ?= 0.5

.PHONY: ci fmt vet lint lint-fix build test fuzz-smoke bench bench-smoke bench-compare prof-smoke

# lint runtime budget: the interprocedural analysis (module load, summary
# fixpoint, rules) must finish inside this wall-clock bound or the target
# fails with exit 3 — a creeping-cost tripwire, not a perf benchmark.
LINT_BUDGET ?= 10s

# Full gate: formatting, go vet, build, hpnlint determinism/invariant rules,
# tests under the race detector, the time-boxed allocator and artifact
# parser fuzz runs, the bench/forensics smoke run, the self-profiler smoke
# run, and the perf comparison against the last committed snapshot.
ci: fmt vet build lint test fuzz-smoke bench-smoke prof-smoke bench-compare

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# hpnlint: the repo's own static-analysis suite (cmd/hpnlint) enforcing
# simulator determinism invariants — see the lint-rules table in README.md.
# CI runs it in -json mode so a failure carries the machine-readable
# finding with its full interprocedural taint chain, not just the sink
# line. ./... from the module root covers every package including cmd/
# and examples/ (the loader walks the whole module); the examples tree is
# named explicitly so the gate survives a future loader that prunes it.
# For human-readable chains run `go run ./cmd/hpnlint ./...` directly.
lint:
	$(GO) run ./cmd/hpnlint -json -budget $(LINT_BUDGET) ./... ./examples/...

# Remove //hpnlint:allow directives that no longer suppress any finding
# (the allowstale rule reports them; this rewrites the files in place).
lint-fix:
	$(GO) run ./cmd/hpnlint -fix-allows ./... ./examples/...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Allocator fuzz smoke: FuzzAllocMutations drives random mutation sequences
# (batched starts, completions, aborts, cable/switch failures and
# recoveries, reroute passes) and checks every incremental recompute
# against a forced full refill and the reference allocator, for a fixed
# time box. A failing input lands in internal/netsim/testdata/fuzz. The
# artifact parsers (in-band TSV, health timeline TSV, prof.json) and the
# BENCH snapshot reader behind `hpnbench -compare` are then fuzzed for a few
# seconds each: no panic, and whatever a parser accepts must read back
# unchanged after a rewrite.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzAllocMutations -fuzztime=10s ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzParseTSV -fuzztime=3s ./internal/inband
	$(GO) test -run=^$$ -fuzz=FuzzParseTSV -fuzztime=3s ./internal/health
	$(GO) test -run=^$$ -fuzz=FuzzParseProfile -fuzztime=3s ./internal/prof
	$(GO) test -run=^$$ -fuzz=FuzzLoadSnapshot -fuzztime=3s ./cmd/hpnbench

bench:
	$(GO) test -run=^$$ -bench=Telemetry -benchmem .

# Smoke the perf-snapshot and in-band forensics pipeline end to end: one
# quick experiment with in-band telemetry on, a BENCH_<stamp>.json snapshot,
# then hpnview over the exported per-hop stream. Everything lands in a
# throwaway directory; the run fails if any stage errors. hpnview exits 3
# on a polarization verdict — a legitimate analysis outcome, not a failure,
# so that exit is folded to success.
bench-smoke:
	@tmp=$$(mktemp -d); \
	set -e; \
	$(GO) run ./cmd/hpnbench -exp fig13 -scale quick -inband $$tmp/artifacts -benchout $$tmp >/dev/null; \
	ls $$tmp/BENCH_*.json >/dev/null; \
	$(GO) run ./cmd/hpnview -in $$tmp/artifacts/inband.tsv -out $$tmp/forensics >/dev/null || [ $$? -eq 3 ]; \
	ls $$tmp/forensics/heatmap.csv $$tmp/forensics/contended.tsv \
	   $$tmp/forensics/imbalance.tsv $$tmp/forensics/polarization.tsv >/dev/null; \
	rm -rf $$tmp; \
	echo "bench-smoke: OK"

# Self-profiler smoke: one quick experiment with -prof on, then assert the
# profiler artifacts landed, the core engine phases actually accumulated
# (every emitted prof.tsv row must carry a nonzero count — zero-count
# phases are omitted by contract, so a zero here means the export path
# broke), and the hpnprof report/compare pipeline round-trips: a profile
# compared against itself must exit 0.
prof-smoke:
	@tmp=$$(mktemp -d); \
	set -e; \
	$(GO) run ./cmd/hpnbench -exp fig13 -scale quick -prof $$tmp/artifacts >/dev/null; \
	ls $$tmp/artifacts/prof.tsv $$tmp/artifacts/prof.json $$tmp/artifacts/flight.tsv >/dev/null; \
	awk -F'\t' 'NR>1 { seen[$$1]=1; if ($$2+0 <= 0) { print "prof-smoke: zero-count phase " $$1; bad=1 } } \
		END { n=split("sim/run sim/dispatch netsim/recompute netsim/decompose netsim/fill netsim/heap_ops netsim/components netsim/dirty_components", req, " "); \
		for (i=1; i<=n; i++) if (!seen[req[i]]) { print "prof-smoke: phase " req[i] " missing from prof.tsv"; bad=1 } exit bad }' \
		$$tmp/artifacts/prof.tsv; \
	$(GO) run ./cmd/hpnprof $$tmp/artifacts/prof.json >/dev/null; \
	$(GO) run ./cmd/hpnprof -compare $$tmp/artifacts/prof.json $$tmp/artifacts/prof.json >/dev/null; \
	rm -rf $$tmp; \
	echo "prof-smoke: OK"

# Perf regression gate: take a fresh quick fig13 snapshot and compare it
# against the newest committed bench/BENCH_*.json with hpnbench's own
# comparator (flags must precede the positional snapshot paths). Exits
# nonzero when flows/sec drops by more than BENCH_COMPARE_TOLERANCE.
bench-compare:
	@tmp=$$(mktemp -d); \
	set -e; \
	base=$$(ls bench/BENCH_*.json | sort | tail -1); \
	echo "bench-compare: baseline $$base"; \
	$(GO) run ./cmd/hpnbench -exp fig13 -scale quick -benchout $$tmp >/dev/null; \
	fresh=$$(ls $$tmp/BENCH_*.json); \
	$(GO) run ./cmd/hpnbench -compare -tolerance $(BENCH_COMPARE_TOLERANCE) $$base $$fresh; \
	rm -rf $$tmp; \
	echo "bench-compare: OK"
