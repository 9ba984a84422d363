package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Config parameterizes the daemon. cmd/neurotestd, its one entry point,
// registers its flags over it (RegisterFlags) and checks it with Validate
// before anything listens.
type Config struct {
	// Addr is the listen address, e.g. ":7823" or "localhost:7823".
	Addr string
	// QueueCapacity bounds *waiting* campaign jobs; a full queue refuses
	// submissions with 503 + Retry-After.
	QueueCapacity int
	// Workers is the number of concurrent campaign jobs (each job's
	// campaign additionally parallelizes internally over GOMAXPROCS).
	Workers int
	// CacheBytes bounds the artifact cache by the binary-codec size of the
	// suites it holds (<= 0 = unbounded).
	CacheBytes int64
	// MaxWeights rejects generation requests whose architecture implies
	// more than this many weights per configuration, keeping one artifact
	// within a sane fraction of the cache (0 = default).
	MaxWeights int
	// PprofAddr, when non-empty, serves net/http/pprof on a separate ops
	// listener (never the public API address).
	PprofAddr string
	// TraceFile, when non-empty, receives the span ring buffer as NDJSON
	// when the daemon shuts down.
	TraceFile string
	// TraceBuffer bounds the span ring buffer (<= 0 selects the obs
	// default).
	TraceBuffer int
	// Coordinator switches the node into cluster-coordinator mode: campaign
	// requests are sharded across the Peers ring instead of run locally.
	// Requires at least one peer.
	Coordinator bool
	// Peers is the comma-separated list of peer base URLs (e.g.
	// "http://w1:7823,http://w2:7823"). On a coordinator it is the worker
	// ring campaigns shard across. On any node, /healthz probes every peer
	// listed; that sweep is all a worker's peers are for.
	Peers string
	// HWDwell simulates the physical tester fixture time every campaign job
	// spends on the equipment (probe contact, thermal settle) before its
	// compute runs. It models the part of test cost that parallelizes only
	// by adding testers — which is exactly what distributing campaigns
	// across workers buys (0 disables; neurofleet benchmarks set it).
	HWDwell time.Duration
}

// PeerList splits Peers into trimmed, non-empty base URLs.
func (c Config) PeerList() []string {
	if strings.TrimSpace(c.Peers) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(c.Peers, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		Addr:          "localhost:7823",
		QueueCapacity: 64,
		Workers:       max(1, runtime.GOMAXPROCS(0)/2),
		CacheBytes:    256 << 20,
		MaxWeights:    16 << 20,
	}
}

// RegisterFlags registers the daemon flags over the config's current values
// (call on a DefaultConfig for the documented defaults).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.IntVar(&c.QueueCapacity, "queue", c.QueueCapacity, "bounded job-queue capacity (full queue answers 503)")
	fs.IntVar(&c.Workers, "workers", c.Workers, "concurrent campaign jobs")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", c.CacheBytes, "artifact cache budget in encoded bytes (<=0 unbounded)")
	fs.IntVar(&c.MaxWeights, "max-weights", c.MaxWeights, "largest per-configuration weight count accepted")
	fs.StringVar(&c.PprofAddr, "pprof-addr", c.PprofAddr, "ops listener address for net/http/pprof (empty disables)")
	fs.StringVar(&c.TraceFile, "trace", c.TraceFile, "file receiving buffered spans as NDJSON on shutdown (empty disables)")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", c.TraceBuffer, "span ring-buffer capacity (<=0 uses the default)")
	fs.BoolVar(&c.Coordinator, "coordinator", c.Coordinator, "run as cluster coordinator: shard campaigns across -peers instead of running them locally")
	fs.StringVar(&c.Peers, "peers", c.Peers, "comma-separated peer base URLs (coordinator: the worker ring; any node: probed by /healthz)")
	fs.DurationVar(&c.HWDwell, "hw-dwell", c.HWDwell, "simulated physical tester fixture time per campaign job (0 disables)")
}

// Validate rejects nonsensical configurations before anything listens.
func (c Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("service: empty listen address")
	}
	if c.QueueCapacity < 1 {
		return fmt.Errorf("service: queue capacity must be >= 1 (got %d)", c.QueueCapacity)
	}
	if c.Workers < 1 {
		return fmt.Errorf("service: workers must be >= 1 (got %d)", c.Workers)
	}
	if c.Coordinator && len(c.PeerList()) == 0 {
		return fmt.Errorf("service: -coordinator requires at least one -peers worker URL")
	}
	if c.HWDwell < 0 {
		return fmt.Errorf("service: hw-dwell must be >= 0 (got %s)", c.HWDwell)
	}
	return nil
}

// ListenAndServe runs the daemon until ctx is cancelled or the process is
// interrupted (SIGINT/SIGTERM), then shuts down gracefully: the listener
// closes, running campaign jobs are cancelled through their contexts, and
// in-flight responses get a drain window.
func ListenAndServe(ctx context.Context, cfg Config, logw io.Writer) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	srv := New(cfg)
	defer srv.Close()
	hs := &http.Server{Addr: cfg.Addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	supervised("http listener", errc, hs.ListenAndServe)
	fmt.Fprintf(logw, "neurotestd listening on %s (queue %d, workers %d, cache %d bytes)\n",
		cfg.Addr, cfg.QueueCapacity, cfg.Workers, cfg.CacheBytes)
	if cfg.PprofAddr != "" {
		ps := &http.Server{Addr: cfg.PprofAddr, Handler: pprofMux()}
		defer ps.Close()
		supervised("pprof listener", errc, ps.ListenAndServe)
		fmt.Fprintf(logw, "neurotestd pprof on %s\n", cfg.PprofAddr)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(logw, "neurotestd: signal received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close() // cancel campaigns so streaming watchers terminate
		err := hs.Shutdown(sctx)
		drainObservability(srv, cfg, logw)
		return err
	}
}

// pprofMux builds an explicit pprof mux so the profiles live only on the
// ops listener, never on the public API mux.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// drainObservability runs after the listener stops: it flushes the span
// ring to the configured trace file and logs the final counter totals, so
// a terminated daemon leaves a post-mortem record.
func drainObservability(srv *Server, cfg Config, logw io.Writer) {
	if cfg.TraceFile != "" {
		if err := srv.Recorder().WriteFile(cfg.TraceFile); err != nil {
			fmt.Fprintf(logw, "neurotestd: writing trace file: %v\n", err)
		} else {
			fmt.Fprintf(logw, "neurotestd: drained %d spans to %s (%d recorded in total)\n",
				srv.Recorder().Len(), cfg.TraceFile, srv.Recorder().Total())
		}
	}
	snap := srv.Metrics().Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap { //lint:ignore determinism keys are sorted before any order-dependent use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(logw, "neurotestd: final totals:")
	for _, k := range keys {
		fmt.Fprintf(logw, " %s=%d", k, snap[k])
	}
	fmt.Fprintln(logw)
}

// supervised starts fn on its own goroutine behind a recover barrier: a
// panic is converted into an error on errc instead of crashing the daemon.
// Together with NewQueue's worker pool it is the only sanctioned spawn
// point in this package (enforced by the ctx-goroutine check in
// internal/lint); exported entry points reaching it must take a
// context.Context so callers keep cancellation authority.
func supervised(name string, errc chan<- error, fn func() error) {
	go func() {
		defer func() {
			if p := recover(); p != nil {
				errc <- fmt.Errorf("service: %s panicked: %v", name, p)
			}
		}()
		errc <- fn()
	}()
}
