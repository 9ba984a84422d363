package service

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// blockingJob returns a job body that parks until release is closed (or the
// job is cancelled), so tests can hold a worker busy deterministically.
func blockingJob(release <-chan struct{}) func(ctx context.Context, _ *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitState polls until the job reaches the state or the deadline passes.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want.String() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", j.ID, j.Status().State, want)
}

func TestQueueRunsJobs(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(4, 2, m)
	defer q.Close()

	j, err := q.SubmitJob("test", func(ctx context.Context, _ *Job) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobDone)
	st := j.Status()
	if st.Result != 42 {
		t.Errorf("result = %v, want 42", st.Result)
	}
	if st.Started == nil || st.Finished == nil {
		t.Errorf("done job missing timestamps: %+v", st)
	}
	if got := m.JobsDone.Load(); got != 1 {
		t.Errorf("jobs_done = %d, want 1", got)
	}
	j.mu.Lock()
	held := j.run != nil
	j.mu.Unlock()
	if held {
		t.Error("finished job still holds its body and everything the body captured")
	}
}

func TestQueueBackpressure(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, m)
	defer q.Close()
	release := make(chan struct{})
	defer close(release)

	// First job occupies the single worker (waitState guarantees it left the
	// buffer), second fills the single buffer slot, third must be refused.
	running, err := q.SubmitJob("block", blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	if _, err := q.SubmitJob("block", blockingJob(release)); err != nil {
		t.Fatal(err)
	}

	if _, err := q.SubmitJob("overflow", blockingJob(release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if got := m.JobsRejected.Load(); got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}
}

func TestQueueCancelWhileQueued(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(2, 1, m)
	defer q.Close()
	release := make(chan struct{})
	defer close(release)

	running, err := q.SubmitJob("block", blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	queued, err := q.SubmitJob("victim", blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling a queued job finalizes it immediately — no worker needed.
	if !queued.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	if st := queued.Status(); st.State != "cancelled" || st.Error != "cancelled" {
		t.Errorf("cancelled-while-queued status: %+v", st)
	}
	if queued.Cancel() {
		t.Error("second Cancel on a terminal job returned true")
	}
}

func TestQueueCancelRunning(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(2, 1, m)
	defer q.Close()
	release := make(chan struct{})
	defer close(release)

	j, err := q.SubmitJob("block", blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobRunning)
	if !j.Cancel() {
		t.Fatal("Cancel returned false for a running job")
	}
	waitState(t, j, JobCancelled)
	if got := m.JobsCancelled.Load(); got != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", got)
	}
}

func TestQueuePanicBecomesFailed(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(2, 1, m)
	defer q.Close()

	j, err := q.SubmitJob("boom", func(ctx context.Context, _ *Job) (any, error) { panic("kaput") })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobFailed)
	if st := j.Status(); !strings.Contains(st.Error, "kaput") {
		t.Errorf("panic not surfaced in error: %+v", st)
	}
	if got := m.JobsFailed.Load(); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}

	// The worker survived the panic and still runs jobs.
	ok, err := q.SubmitJob("after", func(ctx context.Context, _ *Job) (any, error) { return "fine", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ok, JobDone)
}

func TestQueueCloseRefusesAndDrains(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(2, 1, m)
	release := make(chan struct{})
	defer close(release)
	j, err := q.SubmitJob("block", blockingJob(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobRunning)
	q.Close()
	j.mu.Lock()
	live := !j.state.Terminal()
	j.mu.Unlock()
	if live {
		t.Error("Close returned with a job still live")
	}
	if _, err := q.SubmitJob("late", blockingJob(release)); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("submit after close: %v, want ErrQueueClosed", err)
	}
}

func TestPublishOverfillCountsDrops(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, m)
	defer q.Close()

	const overflow = 10
	j, err := q.SubmitJob("test", func(ctx context.Context, j *Job) (any, error) {
		for i := 0; i < maxJobEvents+overflow; i++ {
			j.Publish(i)
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobDone)

	if got := len(j.Events(0)); got != maxJobEvents {
		t.Errorf("buffered events = %d, want the %d cap", got, maxJobEvents)
	}
	st := j.Status()
	if st.EventsDropped != overflow {
		t.Errorf("terminal status events_dropped = %d, want %d", st.EventsDropped, overflow)
	}
	if got := m.EventsDropped.Load(); got != overflow {
		t.Errorf("metrics events_dropped = %d, want %d", got, overflow)
	}
	if snap := m.Snapshot(); snap["events_dropped"] != overflow {
		t.Errorf("snapshot events_dropped = %d, want %d", snap["events_dropped"], overflow)
	}
}

func TestPublishUnderCapDropsNothing(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, m)
	defer q.Close()

	j, err := q.SubmitJob("test", func(ctx context.Context, j *Job) (any, error) {
		j.Publish("one")
		j.Publish("two")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobDone)
	if st := j.Status(); st.EventsDropped != 0 {
		t.Errorf("events_dropped = %d, want 0", st.EventsDropped)
	}
	if got := m.EventsDropped.Load(); got != 0 {
		t.Errorf("metrics events_dropped = %d, want 0", got)
	}
}

// quickJob is a job body that returns at once.
func quickJob(context.Context, *Job) (any, error) { return "quick", nil }

// TestQueueForgetsOldestFinishedJobs: the registry keeps the
// maxFinishedJobs most recently finished jobs and forgets the older ones,
// oldest first, while a running job and a job queued behind all of them
// stay known. Listing and the state counts skip forgotten jobs, and the
// submission order, which would otherwise hold more than twice as many
// IDs as known jobs here, is compacted as jobs are forgotten.
func TestQueueForgetsOldestFinishedJobs(t *testing.T) {
	const extra = maxFinishedJobs + 5
	q := NewQueue(maxFinishedJobs+extra+1, 2, &Metrics{})
	defer q.Close()
	hold, first, last := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(hold)
	defer close(last)
	running, err := q.SubmitJob("block", blockingJob(hold))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	oldest, err := q.SubmitJob("block", blockingJob(first))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, oldest, JobRunning)
	// Both workers are busy: the quick jobs and the last job queue behind
	// them, and one worker drains them in order once oldest finishes.
	quick := make([]*Job, maxFinishedJobs+extra)
	for i := range quick {
		if quick[i], err = q.SubmitJob("quick", quickJob); err != nil {
			t.Fatal(err)
		}
	}
	queued, err := q.SubmitJob("block", blockingJob(last))
	if err != nil {
		t.Fatal(err)
	}
	close(first)
	waitState(t, queued, JobRunning) // every quick job has finished and been retired

	forgotten := append([]*Job{oldest}, quick[:extra]...)
	for _, j := range forgotten {
		if q.Get(j.ID) != nil {
			t.Fatalf("%s is still known after %d later jobs finished", j.ID, maxFinishedJobs)
		}
	}
	want := append(append([]*Job{running}, quick[extra:]...), queued)
	if got := q.List(); !slices.Equal(got, want) {
		t.Fatalf("List holds %d jobs, want running, the last %d finished and queued (%d)", len(got), maxFinishedJobs, len(want))
	}
	counts := q.CountByState()
	if counts["done"] != maxFinishedJobs || counts["running"] != 2 {
		t.Errorf("counts %v, want %d done and 2 running", counts, maxFinishedJobs)
	}
	q.mu.Lock()
	order, known := len(q.order), len(q.jobs)
	q.mu.Unlock()
	if order > 2*known {
		t.Errorf("submission order holds %d IDs for %d known jobs", order, known)
	}
}

// TestForgottenJobIs404: once maxFinishedJobs later jobs have finished, a
// job's ID answers 404 on GET and on its stream, like an unknown ID.
func TestForgottenJobIs404(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCapacity = maxFinishedJobs + 1
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)
	jobs := make([]*Job, maxFinishedJobs+1)
	for i := range jobs {
		var err error
		if jobs[i], err = s.queue.SubmitJob("quick", quickJob); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitState(t, j, JobDone)
	}
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	deadline := time.Now().Add(5 * time.Second)
	for get("/v1/jobs/"+jobs[0].ID) != http.StatusNotFound {
		if time.Now().After(deadline) {
			t.Fatalf("%s still served after %d later jobs finished", jobs[0].ID, maxFinishedJobs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := get("/v1/jobs/" + jobs[0].ID + "/stream"); code != http.StatusNotFound {
		t.Errorf("stream of a forgotten job: %d, want 404", code)
	}
	if code := get("/v1/jobs/" + jobs[1].ID); code != http.StatusOK {
		t.Errorf("GET of a kept job: %d, want 200", code)
	}
}
