package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client talks to one worker node over its public HTTP API. It submits
// shard jobs, streams their NDJSON progress to completion, probes health
// and fetches cached artifacts — exactly the endpoints any external client
// uses, so a worker cannot tell a coordinator from a human with curl.
type Client struct {
	// Base is the worker's base URL, e.g. "http://10.0.0.7:8419".
	Base string

	busyRetries  int
	busySleepCap time.Duration

	// ctl bounds control-plane requests; stream is unbounded (the request
	// context governs cancellation of long-lived NDJSON streams).
	ctl    *http.Client
	stream *http.Client
}

// NewClient builds a client for one worker with the given options.
func NewClient(base string, o Options) *Client {
	o = o.withDefaults()
	return &Client{
		Base:         base,
		busyRetries:  o.BusyRetries,
		busySleepCap: o.BusySleepCap,
		ctl:          &http.Client{Timeout: o.RequestTimeout},
		stream:       &http.Client{},
	}
}

// Health probes GET /healthz. The probe asks for the shallow body
// (?peers=0): a node answering a peer's probe must not sweep its own peers,
// or two nodes listing each other would probe forever.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz?peers=0", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.ctl.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("cluster: %s/healthz: %s", c.Base, resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// FetchArtifact downloads a resident artifact by its content key via
// GET /v1/artifacts/{key} — the peer tier of the two-tier cache. A 404
// (peer never built it, or evicted) is an error; the caller falls through
// to the next peer or builds locally.
func (c *Client) FetchArtifact(ctx context.Context, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/artifacts/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s has no artifact %s: %s", c.Base, key, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// RunJob submits payload to path on the worker (expecting the service's
// 202 + job-status contract), then streams the job to its terminal state
// and returns the terminal result. 503 backpressure is retried on the same
// worker, honoring Retry-After up to the configured cap, a bounded number
// of times. Progress lines that are not status snapshots are forwarded to
// onEvent (which may be nil). If ctx is cancelled mid-job the worker-side
// job is cancelled best-effort before returning ctx.Err().
func (c *Client) RunJob(ctx context.Context, path string, payload any, onEvent func(json.RawMessage)) (json.RawMessage, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	id, err := c.submit(ctx, path, body)
	if err != nil {
		return nil, err
	}
	res, err := c.streamJob(ctx, id, onEvent)
	if ctx.Err() != nil {
		c.cancelJob(id)
		return nil, ctx.Err()
	}
	return res, err
}

// drainClose consumes any unread response bytes and closes the body, so
// the keep-alive connection returns to the transport's pool instead of
// being torn down. Both errors are deliberately dropped: by the time a
// body is drained the response itself has already been handled (or
// discarded on purpose), and a failed drain costs only connection reuse.
func drainClose(body io.ReadCloser) {
	//lint:ignore unchecked-error best-effort drain for connection reuse; the response was already handled
	io.Copy(io.Discard, body)
	//lint:ignore unchecked-error read-side close after the response was consumed; nothing actionable to report
	body.Close()
}

// submit POSTs the job, retrying 503s, and returns the accepted job ID.
func (c *Client) submit(ctx context.Context, path string, body []byte) (string, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.ctl.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			retryAfter := resp.Header.Get("Retry-After")
			drainClose(resp.Body)
			if attempt >= c.busyRetries {
				return "", fmt.Errorf("cluster: %s%s still refusing after %d retries (backpressure)", c.Base, path, attempt)
			}
			obsShardBusyRetries.Add(1)
			if err := sleepCtx(ctx, c.busySleep(retryAfter)); err != nil {
				return "", err
			}
			continue
		}
		var st JobStatus
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("cluster: %s%s: %s (%s)", c.Base, path, resp.Status, st.Error)
		}
		if decodeErr != nil || st.ID == "" {
			return "", fmt.Errorf("cluster: %s%s accepted without a job id (%v)", c.Base, path, decodeErr)
		}
		return st.ID, nil
	}
}

// streamJob follows GET /v1/jobs/{id}/stream to the terminal status line.
func (c *Client) streamJob(ctx context.Context, id string, onEvent func(json.RawMessage)) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s stream for %s: %s", c.Base, id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st JobStatus
		if err := json.Unmarshal(line, &st); err == nil && st.ID != "" && st.State != "" {
			if !terminal(st.State) {
				continue
			}
			if st.State != "done" {
				return nil, fmt.Errorf("cluster: %s job %s %s: %s", c.Base, id, st.State, st.Error)
			}
			return append(json.RawMessage(nil), st.Result...), nil
		}
		if onEvent != nil {
			onEvent(append(json.RawMessage(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %s stream for %s broke: %w", c.Base, id, err)
	}
	return nil, fmt.Errorf("cluster: %s stream for %s ended before a terminal status", c.Base, id)
}

// cancelJob best-effort DELETEs a job; used when the coordinator's context
// is cancelled while shards are in flight, so workers stop burning tester
// time on a campaign nobody is waiting for. It runs on a fresh context —
// the caller's is already dead.
func (c *Client) cancelJob(id string) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodDelete, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.ctl.Do(req); err == nil {
		drainClose(resp.Body)
	}
}

// busySleep converts a Retry-After header into a bounded sleep.
func (c *Client) busySleep(header string) time.Duration {
	d := c.busySleepCap
	if sec, err := strconv.Atoi(header); err == nil && sec >= 0 {
		if hd := time.Duration(sec) * time.Second; hd < d {
			d = hd
		}
	}
	return d
}

// maxStreamLine bounds one NDJSON line (terminal results are small; the
// bound only guards against a corrupted peer).
const maxStreamLine = 8 << 20

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
