GO ?= go

.PHONY: check fmt build vet neurolint lint-self lint-json test race fuzz bench serve fleet

# check is the tier-1 gate: everything CI runs, runnable locally.
check: fmt vet build neurolint lint-self lint-json test race

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# neurolint runs the project's own static-analysis suite (internal/lint,
# DESIGN.md §10): exhaustive fault-model switches, determinism of
# artifact-producing paths, explicit float comparison semantics, panic-free
# libraries and supervised concurrency. Non-zero exit on any un-suppressed
# finding.
neurolint:
	$(GO) run ./cmd/neurolint ./...

# lint-self turns the suite on its own implementation: the analyzer
# framework and the command must satisfy every invariant they enforce
# (fixture trees under testdata/ are skipped by Expand, as everywhere).
lint-self:
	$(GO) run ./cmd/neurolint ./internal/lint/... ./cmd/neurolint

# lint-json asserts the machine-readable contract: the -json report must
# parse and carry its two top-level fields. Findings themselves do not
# fail this step (the neurolint target gates on them); a malformed
# document does.
lint-json:
	@report="$$($(GO) run ./cmd/neurolint -json ./... || true)"; \
	printf '%s\n' "$$report" | jq -e 'has("count") and has("findings")' > /dev/null \
		&& echo "neurolint -json: valid report"

# -shuffle=on randomizes test order so inter-test coupling cannot hide.
test:
	$(GO) test -shuffle=on ./...

# The whole module runs under the race detector; campaign pools, the
# reliability models and the daemon are the heavy users, but nothing is
# exempt.
race:
	$(GO) test -race ./...

# fuzz smokes the codec and service fuzz targets for a few seconds each —
# not a soak, just enough to catch regressions in the corners the corpus
# already maps.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzServedSuites -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzDetector -fuzztime=10s ./internal/online
	$(GO) test -run='^$$' -fuzz=FuzzRepairPlan -fuzztime=10s ./internal/repair
	$(GO) test -run='^$$' -fuzz=FuzzPackedEquivalence -fuzztime=10s ./internal/faultsim

# bench runs the performance suite — the paper-evaluation benchmarks in the
# root package plus the internal/obs instrument, internal/snn simulator,
# internal/faultsim kernel and internal/tester sampling and die-session
# micro-benches — and records the machine-readable Go benchmark output under
# results/bench.txt. Narrow with BENCH (regexp) or shorten with BENCHTIME
# (e.g. 10x).
BENCH ?= .
BENCHTIME ?= 1s
BENCHPKGS ?= . ./internal/obs ./internal/snn ./internal/faultsim ./internal/tester
bench:
	@mkdir -p results
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchtime=$(BENCHTIME) -benchmem $(BENCHPKGS) | tee results/bench.txt

# serve runs the neurotestd test-floor daemon on its default address.
serve:
	$(GO) run ./cmd/neurotestd

# fleet runs the distributed-floor load generator at benchmark scale
# (1-worker vs 3-worker rings behind a coordinator, thousands of concurrent
# client sessions) and records the report under results/BENCH_cluster.json.
# Fails if the 3-worker ring is under 2x single-node throughput or the p99
# latency SLO is missed. FLEETFLAGS overrides or extends the defaults.
FLEETFLAGS ?=
fleet:
	@mkdir -p results
	$(GO) run ./cmd/neurofleet -out results/BENCH_cluster.json $(FLEETFLAGS)
