package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"neurotest/internal/obs"
)

// shardPlan is one shard's assignment: which worker owns it and which
// global item indices it carries.
type shardPlan struct {
	shard int
	owner int
	index []int
}

// Coordinator shards campaign item populations across a fixed worker ring
// and fans shard jobs out over the workers' HTTP job API. It is stateless
// between campaigns: the ring is fixed at construction, every shard
// assignment is a pure function of the item keys, and the partial results
// are returned to the caller (the service layer) for the exact integer
// merge.
type Coordinator struct {
	clients []*Client
	ring    *Ring
}

// New builds a coordinator over the worker base URLs, in ring order, whose
// clients o tunes. A campaign dispatches all of its shards at once (one per
// owning worker), and a shard whose delivery fails is retried on every
// other worker before the campaign fails.
func New(workers []string, o Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker")
	}
	c := &Coordinator{ring: NewRing(workers)}
	for _, w := range workers {
		c.clients = append(c.clients, NewClient(w, o))
	}
	return c, nil
}

// Assign maps every key to its owning worker and returns, per worker, the
// ascending list of key indices it owns. Exposed for tests and for callers
// that want to inspect balance; Run uses it internally.
func (c *Coordinator) Assign(keys []string) [][]int {
	assign := make([][]int, len(c.clients))
	for i, k := range keys {
		w := c.ring.Owner(k)
		assign[w] = append(assign[w], i)
	}
	return assign
}

// Run shards the campaign across the ring and runs it to completion:
// keys[i] is the placement key of global item i (a fault-site string, a
// chip session key), request is the client's original campaign body, and
// path is the worker shard endpoint to POST to. Each worker receives one
// shard job carrying the indices it owns; failed deliveries retry on
// successor workers with backoff; publish (may be nil) receives ShardEvent
// progress plus any events the shard jobs emit. Run returns every shard's
// raw result for the caller to merge, or the first hard failure.
//
// Cancellation: ctx flows into every shard stream; on cancel, in-flight
// worker jobs are best-effort cancelled (DELETE) so the floor stops
// burning tester time on an abandoned campaign.
func (c *Coordinator) Run(ctx context.Context, path string, request json.RawMessage, keys []string, publish func(any)) ([]ShardResult, error) {
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(obsFanOutSeconds) }()

	assign := c.Assign(keys)
	var plans []shardPlan
	for w, idx := range assign {
		if len(idx) == 0 {
			continue
		}
		plans = append(plans, shardPlan{shard: len(plans), owner: w, index: idx})
	}
	if len(plans) == 0 {
		return nil, nil
	}
	tasks := make([]func(context.Context) (ShardResult, error), len(plans))
	for i, p := range plans {
		tasks[i] = func(ctx context.Context) (ShardResult, error) {
			return c.runShard(ctx, p, path, request, publish)
		}
	}
	results, errs := fanOut(ctx, tasks)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runShard delivers one shard: the owner first, then successor workers (in
// ring-index order from the owner) with a fixed backoff schedule between
// attempts. Shard results are worker-independent by construction — every
// per-item seed derives from the item's global index — so a failover
// changes only where the shard ran, never what it computed.
func (c *Coordinator) runShard(ctx context.Context, p shardPlan, path string, request json.RawMessage, publish func(any)) (ShardResult, error) {
	emit := func(ev ShardEvent) {
		if publish != nil {
			ev.Event = "shard"
			ev.Shard = p.shard
			ev.Items = len(p.index)
			publish(ev)
		}
	}
	attempts := len(c.clients)
	var lastErr error
	for a := 0; a < attempts; a++ {
		worker := c.clients[(p.owner+a)%len(c.clients)]
		emit(ShardEvent{Worker: worker.Base, State: "dispatched", Attempt: a + 1})
		obsShardsDispatched.Inc()
		timer := obs.StartTimer()
		res, err := worker.RunJob(ctx, path, Shard{Request: request, Index: p.index}, func(raw json.RawMessage) {
			if publish != nil {
				publish(raw)
			}
		})
		timer.ObserveElapsed(obsShardSeconds)
		if err == nil {
			emit(ShardEvent{Worker: worker.Base, State: "done", Attempt: a + 1})
			return ShardResult{Shard: p.shard, Worker: worker.Base, Index: p.index, Result: res}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return ShardResult{}, err
		}
		if a+1 < attempts {
			emit(ShardEvent{Worker: worker.Base, State: "retrying", Attempt: a + 1, Error: err.Error()})
			obsShardFailovers.Inc()
			if serr := sleepCtx(ctx, failoverBackoff(a)); serr != nil {
				return ShardResult{}, serr
			}
		}
	}
	obsShardsFailed.Inc()
	emit(ShardEvent{State: "failed", Attempt: attempts, Error: lastErr.Error()})
	return ShardResult{}, fmt.Errorf("cluster: shard %d failed on all %d candidate workers: %w", p.shard, attempts, lastErr)
}

// failoverBackoff is the fixed schedule between delivery attempts: 100ms,
// 200ms, 400ms, … capped at 2s. Constants, not wall-clock arithmetic, so
// the coordinator stays off the determinism analyzer's banned clock reads.
func failoverBackoff(attempt int) time.Duration {
	d := 100 * time.Millisecond << attempt
	if d > 2*time.Second {
		return 2 * time.Second
	}
	return d
}

// fanOut runs every task at once, each on its own goroutine, and waits for
// all of them; a campaign sends at most one shard to each worker, so the
// worker count already bounds it. It is the package's single sanctioned
// goroutine spawn site (neurolint ctx-goroutine): each task runs behind a
// recover barrier so one panicking shard degrades into that shard's error
// instead of killing the coordinator, and a task whose context is already
// cancelled when its goroutine starts returns ctx.Err() without running.
func fanOut[T any](ctx context.Context, tasks []func(context.Context) (T, error)) ([]T, []error) {
	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("cluster: shard task panicked: %v", p)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = tasks[i](ctx)
		}(i)
	}
	wg.Wait()
	return results, errs
}
