package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"neurotest/internal/obs"
)

// ErrQueueFull is returned by SubmitJob when the bounded queue has no slot;
// the HTTP layer maps it to 503 + Retry-After (backpressure, not failure).
var ErrQueueFull = errors.New("service: job queue full")

// ErrQueueClosed is returned by SubmitJob after Close.
var ErrQueueClosed = errors.New("service: job queue closed")

// JobState is the lifecycle of a campaign job.
type JobState int32

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

// String renders the state for JSON and logs.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one queued campaign. All mutable fields are guarded by mu; the
// changed channel is closed and replaced on every state transition so
// streaming watchers wake without polling.
type Job struct {
	ID   string
	Kind string

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	errMsg   string
	changed  chan struct{}

	// events is the append-only stream of intermediate progress values a
	// running job publishes (alarm notifications, per-chip verdicts); the
	// streaming endpoint drains it alongside status snapshots. dropped
	// counts publishes refused at the buffer cap so the loss is visible in
	// the job's terminal status instead of silent.
	events  []any
	dropped int64

	ctx     context.Context
	cancel  context.CancelFunc
	run     func(ctx context.Context, j *Job) (any, error)
	metrics *Metrics
}

// maxJobEvents caps the per-job event buffer: a runaway publisher degrades
// to dropping its oldest-unseen semantics (later events win) instead of
// growing the daemon's heap without bound.
const maxJobEvents = 4096

// Publish appends one progress event to the job's stream and wakes
// streaming watchers. Events beyond the buffer cap are dropped — but never
// silently: each drop is counted on the job (surfaced as events_dropped in
// its status, terminal line included) and on the daemon-wide obs counter.
func (j *Job) Publish(ev any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) >= maxJobEvents {
		j.dropped++
		if j.metrics != nil {
			j.metrics.EventsDropped.Add(1)
		}
		return
	}
	j.events = append(j.events, ev)
	j.signalLocked()
}

// Events returns the published events from index n on.
func (j *Job) Events(n int) []any {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(j.events) {
		return nil
	}
	out := make([]any, len(j.events)-n)
	copy(out, j.events[n:])
	return out
}

// JobStatus is the JSON shape of a job snapshot. EventsDropped reports how
// many progress events the job lost at the buffer cap; it appears on every
// snapshot from the first drop on, so the terminal status line always
// discloses the loss.
type JobStatus struct {
	ID            string     `json:"id"`
	Kind          string     `json:"kind"`
	State         string     `json:"state"`
	Created       time.Time  `json:"created"`
	Started       *time.Time `json:"started,omitempty"`
	Finished      *time.Time `json:"finished,omitempty"`
	Error         string     `json:"error,omitempty"`
	Result        any        `json:"result,omitempty"`
	EventsDropped int64      `json:"events_dropped,omitempty"`
}

// Status snapshots the job for JSON rendering.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:            j.ID,
		Kind:          j.Kind,
		State:         j.state.String(),
		Created:       j.created,
		Error:         j.errMsg,
		Result:        j.result,
		EventsDropped: j.dropped,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// watchFrom returns the current status, the events published since index
// n and a channel closed on the next change (state transition or published
// event) — the streaming endpoint's wait primitive.
func (j *Job) watchFrom(n int) (JobStatus, []any, <-chan struct{}) {
	j.mu.Lock()
	ch := j.changed
	j.mu.Unlock()
	return j.Status(), j.Events(n), ch
}

// signalLocked wakes watchers; callers hold mu.
func (j *Job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// start transitions queued → running; false when the job was cancelled
// while waiting in the queue (the worker then skips it).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = now()
	j.signalLocked()
	return true
}

// queuedSeconds returns how long the job waited between submit and start —
// the queue-wait latency the Retry-After estimator complements.
func (j *Job) queuedSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started.Sub(j.created).Seconds()
}

// finish records the outcome of a run.
func (j *Job) finish(result any, err error) JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.state = JobCancelled
		j.errMsg = "cancelled"
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	j.finished = now()
	// The body has run. Dropping it frees what it captured (a campaign's
	// fault sample, say) while the finished job stays listed.
	j.run = nil
	j.signalLocked()
	return j.state
}

// Cancel requests cancellation: a queued job is finalized immediately, a
// running job has its context cancelled and finalizes when its campaign
// pool drains. Returns false if the job was already terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	wasQueued := j.state == JobQueued
	terminal := j.state.Terminal()
	if wasQueued {
		j.state = JobCancelled
		j.errMsg = "cancelled"
		j.finished = now()
		j.signalLocked()
	}
	j.mu.Unlock()
	if terminal {
		return false
	}
	j.cancel() // threads down through the campaign worker pools
	return true
}

// maxFinishedJobs caps how many finished jobs the registry keeps: beyond
// it the oldest finished job is forgotten (GET of its ID answers 404), so a
// long-running daemon's memory does not grow with the jobs it has served.
// Queued and running jobs are never forgotten.
const maxFinishedJobs = 1024

// Queue is the bounded job queue plus its worker pool. SubmitJob applies
// backpressure by failing fast when the buffer is full — the service's
// contract is "queue or refuse", never unbounded memory growth — and the
// registry of known jobs keeps at most maxFinishedJobs finished ones.
type Queue struct {
	ch      chan *Job
	metrics *Metrics

	mu   sync.Mutex
	jobs map[string]*Job
	// order lists job IDs in submission order, for listing. IDs of
	// forgotten jobs linger in it until it holds twice as many IDs as jobs,
	// when it is compacted: O(1) amortised per job.
	order []string
	// finished lists the finished jobs' IDs, oldest first; the worker that
	// drains a job appends it.
	finished []string
	nextID   int
	closed   bool

	wg sync.WaitGroup
}

// NewQueue starts workers goroutines draining a queue of the given
// capacity. Capacity bounds *waiting* jobs; running jobs occupy workers.
func NewQueue(capacity, workers int, m *Metrics) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if workers < 1 {
		workers = 1
	}
	q := &Queue{
		ch:      make(chan *Job, capacity),
		metrics: m,
		jobs:    make(map[string]*Job),
	}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// SubmitJob enqueues a job whose body is run; the body receives its own Job
// handle to Publish progress events on while it runs. It never blocks: a
// full queue returns ErrQueueFull immediately so the HTTP layer can 503.
func (q *Queue) SubmitJob(kind string, run func(ctx context.Context, j *Job) (any, error)) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Kind:    kind,
		state:   JobQueued,
		created: now(),
		changed: make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		run:     run,
		metrics: q.metrics,
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		cancel()
		return nil, ErrQueueClosed
	}
	q.nextID++
	j.ID = fmt.Sprintf("job-%06d", q.nextID)
	// Reserve the slot under the lock so registration and enqueue agree.
	select {
	case q.ch <- j:
	default:
		q.mu.Unlock()
		cancel()
		q.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.mu.Unlock()
	q.metrics.JobsSubmitted.Add(1)
	return j, nil
}

// Get returns a job by ID, or nil.
func (q *Queue) Get(id string) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[id]
}

// List returns every known job in submission order.
func (q *Queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.knownLocked()
}

// knownLocked returns every known job in submission order; callers hold
// mu.
func (q *Queue) knownLocked() []*Job {
	out := make([]*Job, 0, len(q.jobs))
	for _, id := range q.order {
		if j, ok := q.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// retire records that j has finished and forgets the oldest finished jobs
// beyond maxFinishedJobs.
func (q *Queue) retire(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.finished = append(q.finished, j.ID)
	for len(q.finished) > maxFinishedJobs {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
	if len(q.order) > 2*len(q.jobs) {
		q.order = slices.DeleteFunc(q.order, func(id string) bool {
			_, ok := q.jobs[id]
			return !ok
		})
	}
}

// Depth returns the number of jobs waiting in the buffer.
func (q *Queue) Depth() int { return len(q.ch) }

// Capacity returns the queue's buffer size.
func (q *Queue) Capacity() int { return cap(q.ch) }

// jobStateNames lists every state string in definition order; /metrics
// walks it instead of ranging over the CountByState map so the rendered
// gauge order is reproducible.
func jobStateNames() []string {
	return []string{
		JobQueued.String(), JobRunning.String(), JobDone.String(),
		JobFailed.String(), JobCancelled.String(),
	}
}

// CountByState tallies known jobs per state, for /metrics.
func (q *Queue) CountByState() map[string]int {
	counts := map[string]int{
		JobQueued.String(): 0, JobRunning.String(): 0, JobDone.String(): 0,
		JobFailed.String(): 0, JobCancelled.String(): 0,
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.knownLocked() {
		j.mu.Lock()
		counts[j.state.String()]++
		j.mu.Unlock()
	}
	return counts
}

// Close stops accepting jobs, cancels everything outstanding and waits for
// the workers to drain.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	jobs := q.knownLocked()
	q.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	close(q.ch)
	q.wg.Wait()
}

// worker drains the queue. A panicking job body is recovered into a failed
// job — the campaign layers already recover their own pool panics into
// structured WorkerErrors, so anything reaching here is a service bug, and
// it must not take the daemon down.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		if !j.start() {
			// Cancelled while queued: it is already terminal, count it as
			// it drains.
			q.metrics.JobsCancelled.Add(1)
			q.retire(j)
			continue
		}
		q.metrics.QueueWaitSeconds.Observe(j.queuedSeconds())
		q.metrics.WorkersBusy.Add(1)
		timer := obs.StartTimer()
		result, err := runSafely(j)
		timer.ObserveElapsed(q.metrics.JobRunSeconds)
		q.metrics.WorkersBusy.Add(-1)
		switch j.finish(result, err) {
		case JobDone:
			q.metrics.JobsDone.Add(1)
		case JobFailed:
			q.metrics.JobsFailed.Add(1)
		case JobCancelled:
			q.metrics.JobsCancelled.Add(1)
		}
		q.retire(j)
	}
}

// runSafely runs the job body, converting panics into errors.
func runSafely(j *Job) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job %s panicked: %v", j.ID, p)
		}
	}()
	return j.run(j.ctx, j)
}
