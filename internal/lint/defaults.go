package lint

// Production configuration of the analyzer suite. cmd/neurolint and the
// CI gate run exactly this set; DESIGN.md §10 documents the rationale for
// each scope decision.

// DeterministicPaths are the packages whose output feeds the SHA-256
// artifact keys of the content-addressed cache: the suite generator and its
// building blocks, the codec, the compaction rewrite, the
// report and waveform encoders, and the service layer that hashes and
// serves the artifacts. internal/cluster is included because shard
// assignment must be a pure function of the item keys and the ring — a
// wall-clock or map-order dependence there would silently change which
// worker computes which tally. internal/obs is included because its spans and
// metric exposition are themselves served artifacts (/v1/traces, /metrics):
// all wall-clock reads there must flow through its one audited hook.
// internal/online is included because in-field detector decisions must be
// bit-reproducible given the chip seed — drift verdicts feed quarantine.
// internal/repair is included because repair plans must be byte-identical
// for the same diagnosis and chip config — the plan is the die's shipped
// known-bad map and feeds the recovered-yield accounting.
// internal/faultsim is included because fault verdicts feed coverage
// tallies and the memoized downstream cache: a map-order or wall-clock
// dependence in the packed kernel's lane assignment or group walk would
// make coverage results run-dependent.
func DeterministicPaths() []string {
	return []string{
		"neurotest",
		"neurotest/internal/baseline",
		"neurotest/internal/cluster",
		"neurotest/internal/compact",
		"neurotest/internal/core",
		"neurotest/internal/faultsim",
		"neurotest/internal/obs",
		"neurotest/internal/online",
		"neurotest/internal/pattern",
		"neurotest/internal/repair",
		"neurotest/internal/report",
		"neurotest/internal/service",
		"neurotest/internal/vcd",
	}
}

// FloatHelperPaths are the packages whose exported helpers define the
// repository's floating-point comparison semantics; direct ==/!= is the
// point there, and forbidden everywhere else.
func FloatHelperPaths() []string {
	return []string{"neurotest/internal/margin"}
}

// GoroutineConfig scopes the ctx-goroutine check to the concurrency-heavy
// packages and names their sanctioned pool helpers. Spawn sites are
// declarations of the scoped package itself; ctx-required helpers are
// qualified names, matched by identity wherever they are called from.
func GoroutineConfig() CtxGoroutineConfig {
	return CtxGoroutineConfig{
		SpawnSites: map[string][]string{
			// Run is the repository's one bounded worker pool: it recovers a
			// task's panic and re-raises it on the caller once every worker
			// has returned.
			"neurotest/internal/pool": {"Run"},
			// The tester drives pool.Run for every campaign but spawns
			// nothing itself.
			"neurotest/internal/tester": {},
			// NewQueue starts the daemon's worker pool (panics become
			// failed jobs); supervised wraps fire-and-forget goroutines
			// with a recover barrier.
			"neurotest/internal/service": {"NewQueue", "supervised"},
			// The simulation engine drives pool.Run for its golden build
			// and detection matrix but never spawns.
			"neurotest/internal/faultsim": {},
			// fanOut is the coordinator's recover()-disciplined shard
			// dispatcher — the only place the cluster layer may spawn.
			"neurotest/internal/cluster": {"fanOut"},
		},
		CtxRequired: map[string][]string{
			"neurotest/internal/tester":  {"neurotest/internal/pool.Run"},
			"neurotest/internal/service": {"neurotest/internal/service.supervised"},
			"neurotest/internal/cluster": {"neurotest/internal/cluster.fanOut"},
		},
	}
}

// UncheckedErrorExemptions are the callees whose error results the
// unchecked-error check lets pass without a directive, by go/types full
// name. Only contractually-unactionable errors belong here:
//
//   - the fmt.Fprint family — the repo writes to strings.Builder,
//     bytes.Buffer, os.Stderr and http.ResponseWriter, where the write
//     error is impossible (in-memory), already fatal elsewhere (broken
//     pipe on a dying process) or unreportable (the response writer IS
//     the error channel);
//   - strings.Builder writes, documented to always return nil;
//   - direct http.ResponseWriter writes — once a handler is emitting a
//     body there is no second channel to report a dead client on, and
//     the server logs transport errors itself.
//
// Everything else — file writes, encoders, closes, flushes — must be
// handled or carry //lint:ignore unchecked-error <reason>.
func UncheckedErrorExemptions() []string {
	return []string{
		"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
		"fmt.Print", "fmt.Printf", "fmt.Println",
		"(*strings.Builder).WriteString", "(*strings.Builder).WriteByte",
		"(*strings.Builder).WriteRune", "(*strings.Builder).Write",
		"(net/http.ResponseWriter).Write",
	}
}

// DefaultClosables are the resource types the resource-close check
// tracks: HTTP response bodies (the cluster client's job-submit and
// job-stream connections leak pooled sockets when left open) and files
// (every unflushed result writer in the cmds).
func DefaultClosables() []ClosableType {
	return []ClosableType{
		{TypeName: "net/http.Response", CloseVia: "Body"},
		{TypeName: "os.File"},
	}
}

// DefaultResourceClose is the production resource-close configuration:
// the closable set above, plus the cluster client's drain-and-close
// helper, which takes ownership of a response body and closes it after
// draining for connection reuse.
func DefaultResourceClose() ResourceCloseConfig {
	return ResourceCloseConfig{
		Closables:  DefaultClosables(),
		CloseFuncs: []string{"neurotest/internal/cluster.drainClose"},
	}
}

// DefaultAnalyzers returns the project invariants at production scope:
// the five syntactic/per-package checks plus the flow-aware and
// module-wide suite — unchecked-error, the CFG-backed lock-balance and
// resource-close, the call-graph determinism closure and dead-code.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewExhaustiveFaultSwitch("neurotest/internal/fault", "Kind"),
		NewDeterminism(DeterministicPaths()...),
		NewFloatEq(FloatHelperPaths()...),
		NewNoPanic(),
		NewCtxGoroutine(GoroutineConfig()),
		NewUncheckedError(UncheckedErrorExemptions()...),
		NewLockBalance(),
		NewResourceClose(DefaultResourceClose()),
		NewInterproceduralDeterminism(DeterministicPaths()...),
		NewDeadCode(),
	}
}
