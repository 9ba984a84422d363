GO ?= go

.PHONY: check fmt build vet vet-arm64 inline neurolint lint-self lint-json test race perfbench examples fuzz bench serve fleet

# check is the tier-1 gate: everything CI runs, runnable locally.
check: fmt vet vet-arm64 build inline neurolint lint-self lint-json test race perfbench examples

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-arm64 type-checks and vets every package and test for a non-amd64
# target, where the snn kernels take their portable paths (axpy_other.go).
# The other targets build for the host only, so a kernel dispatched in
# axpy_amd64.go but missing from axpy_other.go would otherwise break every
# other platform unseen. It needs no download: go vet cross-checks with the
# installed toolchain.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

# inline fails when the compiler stops inlining snn.Step, the one LIF
# update, at any of its non-test call sites in internal/snn and
# internal/faultsim. The step runs in the innermost loop of the simulator
# and of the packed kernel, so losing its inlining is a slowdown no test
# sees. Call sites are the source lines that call Step; each must appear in
# the compiler's "inlining call to" report.
inline: SHELL := /bin/bash
inline:
	@sites="$$(grep -nE '(^|[^A-Za-z0-9_.])(snn\.)?Step\(' internal/snn/*.go internal/faultsim/*.go \
		| grep -v '_test\.go:' | grep -v 'func Step(' | cut -d: -f1,2 | sort -u)"; \
	inlined="$$($(GO) build -gcflags=-m ./internal/snn ./internal/faultsim 2>&1 \
		| grep -E 'inlining call to (snn\.)?Step$$' | cut -d: -f1,2 | sort -u)"; \
	n="$$(printf '%s\n' "$$sites" | grep -c .)"; \
	missing="$$(comm -23 <(printf '%s\n' "$$sites") <(printf '%s\n' "$$inlined"))"; \
	if [ "$$n" -eq 0 ]; then echo "inline: no call sites of snn.Step found"; exit 1; fi; \
	if [ -n "$$missing" ]; then echo "inline: snn.Step not inlined at:"; echo "$$missing"; exit 1; fi; \
	echo "inline: snn.Step inlined at all $$n call sites"

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
# A partial load, it skips dead-code, which the neurolint target covers.
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
# exempt. That pass runs at the machine's core count only, so the packages
# on the worker pool run again at one worker, where a nested pool.Run shares
# one P, and at four, oversubscribed on small runners.
RACEPOOLPKGS = ./internal/pool ./internal/faultsim ./internal/tester ./internal/diagnose ./internal/compact ./internal/baseline
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 $(RACEPOOLPKGS)

# perfbench vets and smokes the benchmark harness. It is its own module
# (replacing neurotest with ../), so the root's build, vet and test never
# compile it; without this target an API change in tester or service could
# break the harness that gates every change, unseen.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# examples runs every example program and fails on the first that exits
# non-zero. The build compiles them, but only a run catches a runtime break
# in the library calls they make.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# fuzz smokes the codec, service, kernel and generator fuzz targets for a
# few seconds each — not a soak, just enough to catch regressions in the
# corners the corpus already maps. CI's fuzz smoke runs this target, so this
# is the one list.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzServedSuites -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=10s ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzDetector -fuzztime=10s ./internal/online
	$(GO) test -run='^$$' -fuzz=FuzzRepairPlan -fuzztime=10s ./internal/repair
	$(GO) test -run='^$$' -fuzz=FuzzPackedEquivalence -fuzztime=10s ./internal/faultsim
	$(GO) test -run='^$$' -fuzz=FuzzGeneratorCoverage -fuzztime=10s ./internal/core

# bench runs the performance suite — the paper-evaluation benchmarks in the
# root package plus the internal/obs instrument, internal/snn simulator and
# kernels, internal/faultsim golden build and kernel, internal/margin
# analysis, internal/tester sampling, die-session and sessions-job and
# internal/variation error-tensor sampling micro-benches — and records the
# machine-readable Go benchmark output under results/bench.txt. Narrow with
# BENCH (regexp) or shorten with BENCHTIME (e.g. 10x).
BENCH ?= .
BENCHTIME ?= 1s
BENCHPKGS ?= . ./internal/obs ./internal/snn ./internal/faultsim ./internal/margin ./internal/tester ./internal/variation
# pipefail keeps a failing benchmark failing the target through the tee
# (CI's bench smoke runs this target).
bench: SHELL := /bin/bash
bench: .SHELLFLAGS := -o pipefail -c
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
