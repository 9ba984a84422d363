package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one workload after set-up.
type instance interface {
	// op runs op number id and checks its outputs. tr is nil on untraced
	// ops.
	op(id int, tr *opTrace) error
	// beginWindow snapshots the counters the traced metrics are deltas of.
	beginWindow() error
	// verify runs the output checks that belong outside the timed window.
	verify(w io.Writer) error
	// layerMetrics sets the workload's per-layer metrics after a traced
	// window; it may run probes on tr.
	layerMetrics(tr *tracer, sum traceSummary, m map[string]float64) error
	// close stops everything the instance started and waits for it.
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// clients is the number of closed-loop callers.
	clients int
	// warmup ops run after set-up, outside set-up time and the window.
	warmup int
	// setupReps is how many timed set-ups run, after one untimed set-up
	// that faults in the process's first heap and code pages; setup_s is
	// their median and the last instance is kept.
	setupReps int
	setup     func(seed uint64) (instance, error)
}

var workloads = []workload{coldCampaign, signoff, floor}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// config selects one run.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// out receives the traced run's spans as NDJSON ("" writes none).
	out string
	// maxOps caps the window's ops (0: no cap); the smoke test sets it.
	maxOps int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one finished op of the timed window.
type sample struct {
	lat    time.Duration
	traced bool
}

// settleHeap collects garbage left by earlier work and returns freed memory
// to the OS, so it cannot land in what is measured next.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// loopResult is what one closed-loop pass produced.
type loopResult struct {
	samples []sample
	failed  int
	errs    []error
	elapsed time.Duration
}

// runLoop drives inst with clients closed-loop callers: each starts its
// next op only when its previous one has returned. It stops starting ops at
// deadline (zero: never) or after limit ops (0: no limit). When tr is
// non-nil half the ops are traced (see traced).
func runLoop(inst instance, clients, limit int, deadline time.Time, tr *tracer) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var failed int
			var errs []error
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				id := int(next.Add(1) - 1)
				if limit > 0 && id >= limit {
					break
				}
				var ot *opTrace
				if tr != nil && traced(id) {
					ot = tr.begin(id)
				}
				t0 := time.Now()
				err := inst.op(id, ot)
				lat := time.Since(t0)
				ot.finish()
				local = append(local, sample{lat: lat, traced: ot != nil})
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Errorf("op %d: %w", id, err))
					}
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// traced selects the ops a traced run traces: every other op, in a pattern
// that also alternates within each residue of id modulo 4, so a workload
// that mixes op kinds by id modulo 4 has half of each kind traced.
func traced(id int) bool { return (id+id/4)%2 == 0 }

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latenciesMS returns the sorted latencies of the samples that match traced.
func latenciesMS(samples []sample, traced bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.traced == traced {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// run performs one benchmark run, printing a report to w that ends with the
// result line.
func run(cfg config, w io.Writer) (_ result, err error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Fprintf(w, "workload %s: seed %d, window %s, trace %v, %d closed-loop clients, GOMAXPROCS %d\n",
		wl.name, cfg.seed, cfg.window, cfg.trace, wl.clients, runtime.GOMAXPROCS(0))

	var inst instance
	var setups []float64
	settleHeap()
	for r := 0; r <= wl.setupReps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = wl.setup(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if r > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", wl.name, cerr)
		}
	}()

	warm := runLoop(inst, wl.clients, wl.warmup, time.Time{}, nil)
	if warm.failed > 0 {
		return result{}, fmt.Errorf("warm-up failed: %v", warm.errs)
	}

	settleHeap()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := inst.beginWindow(); err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return result{}, err
	}
	res := runLoop(inst, wl.clients, cfg.maxOps, time.Now().Add(cfg.window), tr)
	cpu1, err := cpuTime()
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	rss, err := maxRSSMB()
	if err != nil {
		return result{}, err
	}

	correct := res.failed == 0
	for _, e := range res.errs {
		fmt.Fprintf(w, "check failed: %v\n", e)
	}
	if err := inst.verify(w); err != nil {
		fmt.Fprintf(w, "check failed: %v\n", err)
		correct = false
	}

	n := len(res.samples)
	out := result{Attempted: n, Failed: res.failed, Metrics: map[string]metric{}}
	if n == 0 {
		return out, fmt.Errorf("no op completed in the window")
	}
	all := make([]float64, 0, n)
	for _, s := range res.samples {
		all = append(all, ms(s.lat))
	}
	sort.Float64s(all)
	beyond := n - int(math.Ceil(0.9*float64(n)))
	values := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     float64(n) / res.elapsed.Seconds(),
		"p50_ms":        quantile(all, 0.5),
		"p90_ms":        quantile(all, 0.9),
		"cpu_ms_per_op": ms(cpu1-cpu0) / float64(n),
		"max_rss_mb":    rss,
	}
	fmt.Fprintf(w, "set-ups (s): %.4f\n", setups)
	fmt.Fprintf(w, "window: %d ops (latency samples) in %.3f s, %d beyond p90\n", n, res.elapsed.Seconds(), beyond)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-14s %14.6f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(w, "%-14s %14.6f %s\n", "failed_pct", 100*float64(res.failed)/float64(n), "%")
	if beyond < 10 {
		fmt.Fprintf(w, "warning: only %d samples beyond p90; lengthen the window\n", beyond)
	}

	if !cfg.trace {
		for _, d := range endToEnd {
			out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		out.Correct = correct
		return out, nil
	}

	sum := tr.summarize()
	if !sum.printLayers(w) {
		correct = false
	}
	layer := map[string]float64{}
	for _, d := range perLayer {
		layer[d.name] = 0
	}
	ops := float64(n)
	layer["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / ops
	layer["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
	layer["runtime.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / ops
	traced, untraced := latenciesMS(res.samples, true), latenciesMS(res.samples, false)
	if p := quantile(untraced, 0.5); p > 0 {
		layer["bench.trace_overhead_pct"] = 100 * (quantile(traced, 0.5)/p - 1)
	}
	if err := inst.layerMetrics(tr, sum, layer); err != nil {
		return out, err
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %14.6f %s\n", d.name, layer[d.name], d.unit)
		out.Metrics[d.name] = metric{Value: layer[d.name], Unit: d.unit}
	}
	if cfg.out != "" {
		if err := writeTrace(tr, filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.ndjson", wl.name, cfg.seed))); err != nil {
			return out, err
		}
	}
	out.Correct = correct
	return out, nil
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := tr.writeNDJSON(f); err != nil {
		return fmt.Errorf("writing spans: %w", errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// printResult writes the result as one JSON line.
func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
