// Command neurofleet is the distributed test floor's load generator: it
// boots an in-process cluster (one coordinator, N workers, each a full
// neurotestd), drives thousands of concurrent simulated client sessions
// against the coordinator's campaign API, and reports throughput plus
// end-to-end latency quantiles per ring size.
//
// Each campaign is a single-fault coverage job (sample=1) with a unique
// seed, so consistent hashing spreads campaigns across the ring, and each
// worker charges the configured -dwell of simulated fixture time per job —
// the cost component that only parallelizes by adding testers. Clients are
// closed-loop: with far more sessions than fixture slots the coordinator's
// bounded queue answers 503 + Retry-After, and the measured latencies show
// what tail a client sees *through* that backpressure.
//
// Usage:
//
//	neurofleet [-clients 2000] [-campaigns 2400] [-dwell 100ms]
//	           [-legs 1,3] [-slo-p99 10s] [-min-speedup 2.0]
//	           [-out results/BENCH_cluster.json]
//
// The run fails (exit 1) if any campaign errors, if the final (largest)
// leg's p99 exceeds -slo-p99, or if the final leg's throughput over the
// first leg's falls below -min-speedup (0 disables the speedup gate, for
// smoke runs with tiny budgets).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurotest/internal/cluster"
	"neurotest/internal/service"
	"neurotest/internal/stats"
)

type options struct {
	clients     int
	campaigns   int
	dwell       time.Duration
	arch        string
	legs        string
	nodeWorkers int
	nodeQueue   int
	coordWork   int
	coordQueue  int
	retrySleep  time.Duration
	sloP99      time.Duration
	minSpeedup  float64
	out         string
}

// legResult is one ring size's measured run.
type legResult struct {
	Workers       int     `json:"workers"`
	Campaigns     int     `json:"campaigns"`
	Errors        int     `json:"errors"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputCPS float64 `json:"throughput_cps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// Suites generated (cache misses), summed over the leg's worker nodes.
	SuiteGenerations int64 `json:"suite_generations"`
}

// benchReport is the JSON written to -out (and always to stdout).
type benchReport struct {
	Generated  string      `json:"generated"`
	Clients    int         `json:"clients"`
	Campaigns  int         `json:"campaigns"`
	DwellMs    float64     `json:"dwell_ms"`
	Arch       []int       `json:"arch"`
	Legs       []legResult `json:"legs"`
	Speedup    float64     `json:"speedup"`
	MinSpeedup float64     `json:"min_speedup"`
	SpeedupMet bool        `json:"speedup_met"`
	SLOP99Ms   float64     `json:"slo_p99_ms"`
	SLOMet     bool        `json:"slo_met"`
}

func main() {
	var o options
	fs := flag.NewFlagSet("neurofleet", flag.ExitOnError)
	fs.IntVar(&o.clients, "clients", 2000, "concurrent simulated client sessions")
	fs.IntVar(&o.campaigns, "campaigns", 2400, "total campaigns per leg, shared by all sessions")
	fs.DurationVar(&o.dwell, "dwell", 100*time.Millisecond, "simulated fixture time each campaign holds on a worker")
	fs.StringVar(&o.arch, "arch", "12,8,4", "chip architecture for the campaigns")
	fs.StringVar(&o.legs, "legs", "1,3", "comma-separated worker-ring sizes to benchmark, in order")
	fs.IntVar(&o.nodeWorkers, "node-workers", 16, "campaign workers (fixture slots) per worker node")
	fs.IntVar(&o.nodeQueue, "node-queue", 256, "job-queue capacity per worker node")
	fs.IntVar(&o.coordWork, "coord-workers", 96, "concurrent fan-out jobs on the coordinator")
	fs.IntVar(&o.coordQueue, "coord-queue", 1536, "coordinator job-queue capacity (backpressure point)")
	fs.DurationVar(&o.retrySleep, "retry-sleep", 250*time.Millisecond, "client sleep between 503 retries")
	fs.DurationVar(&o.sloP99, "slo-p99", 10*time.Second, "declared p99 latency SLO for the final (largest) leg")
	fs.Float64Var(&o.minSpeedup, "min-speedup", 2.0, "required final-leg/first-leg throughput ratio (0 disables)")
	fs.StringVar(&o.out, "out", "", "also write the JSON report to this file")
	//lint:ignore unchecked-error ExitOnError FlagSet: Parse exits the process on error and never returns one
	fs.Parse(os.Args[1:])

	arch, err := parseArch(o.arch)
	if err != nil {
		fatal(err)
	}
	legs, err := parseLegs(o.legs)
	if err != nil {
		fatal(err)
	}
	// All sessions share one tuned connection pool: the fleet's sockets are
	// bounded by in-flight campaigns, not by session count.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.MaxIdleConns = 4096
		tr.MaxIdleConnsPerHost = 4096
	}

	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Clients:    o.clients,
		Campaigns:  o.campaigns,
		DwellMs:    o.dwell.Seconds() * 1000,
		Arch:       arch,
		MinSpeedup: o.minSpeedup,
		SLOP99Ms:   o.sloP99.Seconds() * 1000,
	}
	for _, n := range legs {
		fmt.Fprintf(os.Stderr, "neurofleet: leg workers=%d clients=%d campaigns=%d dwell=%s\n",
			n, o.clients, o.campaigns, o.dwell)
		leg, err := runLeg(o, arch, n)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "neurofleet: leg workers=%d done: %.1f campaigns/s, p50 %.0fms p95 %.0fms p99 %.0fms, %d errors\n",
			n, leg.ThroughputCPS, leg.P50Ms, leg.P95Ms, leg.P99Ms, leg.Errors)
		report.Legs = append(report.Legs, leg)
	}

	first, last := report.Legs[0], report.Legs[len(report.Legs)-1]
	if first.ThroughputCPS > 0 {
		report.Speedup = last.ThroughputCPS / first.ThroughputCPS
	}
	report.SpeedupMet = o.minSpeedup <= 0 || len(report.Legs) < 2 || report.Speedup >= o.minSpeedup
	report.SLOMet = last.P99Ms <= report.SLOP99Ms

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	if o.out != "" {
		if err := writeReport(o.out, report); err != nil {
			fatal(err)
		}
	}

	failed := false
	for _, leg := range report.Legs {
		if leg.Errors > 0 {
			fmt.Fprintf(os.Stderr, "neurofleet: FAIL: leg workers=%d had %d campaign errors\n", leg.Workers, leg.Errors)
			failed = true
		}
	}
	if !report.SLOMet {
		fmt.Fprintf(os.Stderr, "neurofleet: FAIL: final-leg p99 %.0fms exceeds SLO %.0fms\n", last.P99Ms, report.SLOP99Ms)
		failed = true
	}
	if !report.SpeedupMet {
		fmt.Fprintf(os.Stderr, "neurofleet: FAIL: speedup %.2fx below required %.2fx\n", report.Speedup, o.minSpeedup)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// node is one in-process daemon: a neurotestd server behind a real TCP
// listener, so the fleet exercises the same HTTP path a physical floor does.
type node struct {
	srv *service.Server
	hs  *http.Server
	url string
}

func (n *node) close() {
	//lint:ignore unchecked-error best-effort teardown of an in-process bench node; a stuck listener cannot affect the measured legs
	n.hs.Close()
	n.srv.Close()
}

// startNode listens first and builds the server after, so every worker URL
// is known before the coordinator that lists them starts.
func startNode(cfg service.Config, ln net.Listener) *node {
	s := service.New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	n := &node{srv: s, hs: hs, url: "http://" + ln.Addr().String()}
	//lint:ignore unchecked-error Serve returns ErrServerClosed at teardown; a transport failure surfaces as campaign errors in the leg result
	go hs.Serve(ln)
	return n
}

// runLeg boots a coordinator + n-worker ring, drives the closed-loop fleet
// through it, and tears the ring down.
func runLeg(o options, arch []int, n int) (legResult, error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return legResult{}, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	workers := make([]*node, n)
	for i, ln := range listeners {
		cfg := service.DefaultConfig()
		cfg.Addr = ln.Addr().String()
		cfg.Workers = o.nodeWorkers
		cfg.QueueCapacity = o.nodeQueue
		cfg.HWDwell = o.dwell
		workers[i] = startNode(cfg, ln)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return legResult{}, err
	}
	ccfg := service.DefaultConfig()
	ccfg.Addr = cln.Addr().String()
	ccfg.Coordinator = true
	ccfg.Peers = strings.Join(urls, ",")
	ccfg.Workers = o.coordWork
	ccfg.QueueCapacity = o.coordQueue
	coord := startNode(ccfg, cln)
	defer func() {
		coord.close()
		for _, w := range workers {
			w.close()
		}
	}()

	client := cluster.NewClient(coord.url, cluster.Options{
		BusyRetries:    1 << 20, // closed-loop clients wait out backpressure; latency records the wait
		BusySleepCap:   o.retrySleep,
		RequestTimeout: 60 * time.Second,
	})
	var next, errs atomic.Int64
	lat := make([][]float64, o.clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.campaigns) {
					return
				}
				body := map[string]any{"arch": arch, "sample": 1, "seed": uint64(i)}
				t0 := time.Now()
				_, err := client.RunJob(ctx, "/v1/coverage", body, nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				lat[c] = append(lat[c], time.Since(t0).Seconds()*1000)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	merged := []float64{}
	for _, l := range lat {
		sort.Float64s(l)
		merged = stats.MergeSorted(merged, l)
	}
	res := legResult{
		Workers:     n,
		Campaigns:   o.campaigns,
		Errors:      int(errs.Load()),
		WallSeconds: wall.Seconds(),
		P50Ms:       stats.Quantile(merged, 0.50),
		P95Ms:       stats.Quantile(merged, 0.95),
		P99Ms:       stats.Quantile(merged, 0.99),
	}
	if wall > 0 {
		res.ThroughputCPS = float64(len(merged)) / wall.Seconds()
	}
	for _, w := range workers {
		res.SuiteGenerations += w.srv.Metrics().CacheMisses.Load()
	}
	return res, nil
}

func parseArch(s string) ([]int, error) {
	var arch []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("neurofleet: bad -arch %q", s)
		}
		arch = append(arch, v)
	}
	if len(arch) < 2 {
		return nil, fmt.Errorf("neurofleet: -arch needs at least two layers")
	}
	return arch, nil
}

func parseLegs(s string) ([]int, error) {
	var legs []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("neurofleet: bad -legs %q", s)
		}
		legs = append(legs, v)
	}
	if len(legs) == 0 {
		return nil, fmt.Errorf("neurofleet: -legs selects no ring sizes")
	}
	return legs, nil
}

func writeReport(path string, report benchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		//lint:ignore unchecked-error the encode error already reports the failure; close is cleanup on the error path
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
