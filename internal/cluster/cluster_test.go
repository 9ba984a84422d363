package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWorker is a minimal stand-in for a neurotestd worker: it accepts shard
// submissions on any /v1/shards/ path, answers the 202 + job-status
// contract, and streams one event line plus a terminal status whose result
// echoes the shard's indices — enough to watch the coordinator's routing
// without any simulation.
type fakeWorker struct {
	name string
	srv  *httptest.Server

	mu     sync.Mutex
	nextID int
	jobs   map[string]Shard

	// fail503 makes the next N submissions answer 503 (then accept).
	fail503 atomic.Int32
	// down makes every request answer 500.
	down atomic.Bool
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{name: name, jobs: make(map[string]Shard)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{kind}", w.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", w.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	if w.down.Load() {
		http.Error(rw, "down", http.StatusInternalServerError)
		return
	}
	if w.fail503.Load() > 0 {
		w.fail503.Add(-1)
		rw.Header().Set("Retry-After", "0")
		http.Error(rw, "busy", http.StatusServiceUnavailable)
		return
	}
	var sh Shard
	if err := json.NewDecoder(r.Body).Decode(&sh); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	w.nextID++
	id := w.name + "-" + strconv.Itoa(w.nextID)
	w.jobs[id] = sh
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusAccepted)
	json.NewEncoder(rw).Encode(JobStatus{ID: id, State: "queued"})
}

func (w *fakeWorker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if w.down.Load() {
		http.Error(rw, "down", http.StatusInternalServerError)
		return
	}
	w.mu.Lock()
	sh, ok := w.jobs[r.PathValue("id")]
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "no such job", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rw)
	enc.Encode(map[string]any{"event": "progress", "worker": w.name})
	result, _ := json.Marshal(map[string]any{"worker": w.name, "index": sh.Index})
	enc.Encode(JobStatus{ID: r.PathValue("id"), State: "done", Result: result})
}

func testOptions() Options {
	return Options{BusySleepCap: time.Millisecond, RequestTimeout: 5 * time.Second}
}

func shardKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("item|%d", i)
	}
	return keys
}

// echoResult is the fake worker's terminal payload.
type echoResult struct {
	Worker string `json:"worker"`
	Index  []int  `json:"index"`
}

func TestCoordinatorRunRoutesEveryIndexOnce(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	coord, err := New(urls, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys := shardKeys(100)
	var mu sync.Mutex
	var events []ShardEvent
	results, err := coord.Run(t.Context(), "/v1/shards/test", json.RawMessage(`{"x":1}`), keys, func(ev any) {
		if se, ok := ev.(ShardEvent); ok {
			mu.Lock()
			events = append(events, se)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every global index appears exactly once across the shard results, and
	// each worker's echoed indices match what the ring assigned it.
	assign := coord.Assign(keys)
	seen := make(map[int]bool)
	for _, sr := range results {
		var echo echoResult
		if err := json.Unmarshal(sr.Result, &echo); err != nil {
			t.Fatalf("decoding echo from %s: %v", sr.Worker, err)
		}
		if len(echo.Index) != len(sr.Index) {
			t.Fatalf("shard %d: worker echoed %d indices, coordinator recorded %d", sr.Shard, len(echo.Index), len(sr.Index))
		}
		for _, i := range echo.Index {
			if seen[i] {
				t.Fatalf("index %d routed twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(keys) {
		t.Fatalf("routed %d of %d indices", len(seen), len(keys))
	}
	nonEmpty := 0
	for _, idx := range assign {
		if len(idx) > 0 {
			nonEmpty++
		}
	}
	if len(results) != nonEmpty {
		t.Errorf("got %d shard results, want %d (one per non-empty assignment)", len(results), nonEmpty)
	}
	dispatched, done := 0, 0
	mu.Lock()
	for _, ev := range events {
		switch ev.State {
		case "dispatched":
			dispatched++
		case "done":
			done++
		}
	}
	mu.Unlock()
	if dispatched != nonEmpty || done != nonEmpty {
		t.Errorf("shard events: %d dispatched, %d done, want %d each", dispatched, done, nonEmpty)
	}
}

func TestCoordinatorFailsOverToSuccessor(t *testing.T) {
	workers := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	workers[1].down.Store(true)
	coord, err := New(urls, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys := shardKeys(60)
	results, err := coord.Run(t.Context(), "/v1/shards/test", json.RawMessage(`{}`), keys, nil)
	if err != nil {
		t.Fatalf("run with one dead worker: %v", err)
	}
	seen := 0
	for _, sr := range results {
		if sr.Worker == workers[1].srv.URL {
			t.Fatalf("shard %d reported as run on the dead worker", sr.Shard)
		}
		seen += len(sr.Index)
	}
	if seen != len(keys) {
		t.Fatalf("routed %d of %d indices after failover", seen, len(keys))
	}
}

func TestCoordinatorAllWorkersDead(t *testing.T) {
	w := newFakeWorker(t, "w0")
	w.down.Store(true)
	coord, err := New([]string{w.srv.URL}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(t.Context(), "/v1/shards/test", json.RawMessage(`{}`), shardKeys(5), nil)
	if err == nil {
		t.Fatal("run against a dead ring succeeded")
	}
}

func TestClientRetries503Backpressure(t *testing.T) {
	w := newFakeWorker(t, "w0")
	w.fail503.Store(3)
	c := NewClient(w.srv.URL, testOptions())
	retries := obsShardBusyRetries.Value()
	var events int
	res, err := c.RunJob(t.Context(), "/v1/shards/test", Shard{Request: json.RawMessage(`{}`), Index: []int{1, 2}}, func(json.RawMessage) { events++ })
	if err != nil {
		t.Fatalf("RunJob through 503s: %v", err)
	}
	var echo echoResult
	if err := json.Unmarshal(res, &echo); err != nil {
		t.Fatal(err)
	}
	if len(echo.Index) != 2 || events != 1 {
		t.Errorf("echo %+v, %d events forwarded", echo, events)
	}
	// A client used with no coordinator still counts its retries.
	if got := obsShardBusyRetries.Value() - retries; got != 3 {
		t.Errorf("cluster_shard_busy_retries_total rose by %d, want 3", got)
	}
}

func TestClientCancelledContext(t *testing.T) {
	// A worker that accepts but never finishes streaming.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{kind}", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(JobStatus{ID: "stuck", State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		rw.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	var cancelled atomic.Bool
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		cancelled.Store(true)
		rw.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClient(srv.URL, testOptions())
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	_, err := c.RunJob(ctx, "/v1/shards/test", Shard{Request: json.RawMessage(`{}`)}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunJob on cancelled ctx: %v, want deadline exceeded", err)
	}
	// The worker-side job is cancelled best-effort.
	deadline := time.Now().Add(2 * time.Second)
	for !cancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !cancelled.Load() {
		t.Error("worker job was never cancelled after client context expired")
	}
}

// TestFanOutRunsEveryTaskAtOnceAndCollects: every task runs concurrently
// with all the others (each waits until all have started) and its result
// lands at its own index.
func TestFanOutRunsEveryTaskAtOnceAndCollects(t *testing.T) {
	const n = 20
	var started atomic.Int32
	tasks := make([]func(context.Context) (int, error), n)
	for i := range tasks {
		tasks[i] = func(context.Context) (int, error) {
			started.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for started.Load() < n {
				if time.Now().After(deadline) {
					return 0, fmt.Errorf("only %d of %d tasks ever ran at once", started.Load(), n)
				}
				time.Sleep(time.Millisecond)
			}
			return i * i, nil
		}
	}
	results, errs := fanOut(t.Context(), tasks)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if results[i] != i*i {
			t.Fatalf("task %d returned %d, want %d", i, results[i], i*i)
		}
	}
}

func TestFanOutPanicBecomesError(t *testing.T) {
	tasks := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 7, nil },
		func(context.Context) (int, error) { panic("shard exploded") },
	}
	results, errs := fanOut(t.Context(), tasks)
	if errs[0] != nil || results[0] != 7 {
		t.Errorf("healthy task: %d, %v", results[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("panicking task produced no error")
	}
}

// TestFanOutCancelledBeforeStart: under a context cancelled before the
// fan-out, no task runs and each returns context.Canceled.
func TestFanOutCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var ran atomic.Int32
	task := func(context.Context) (int, error) {
		ran.Add(1)
		return 1, nil
	}
	_, errs := fanOut(ctx, []func(context.Context) (int, error){task, task, task})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("task %d: %v, want context.Canceled", i, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran under a cancelled context", n)
	}
}
