package cluster

import (
	"encoding/json"
	"time"
)

// Shard is the wire shape of one shard job (POST /v1/shards/{coverage,
// sessions} on a worker): the client's original campaign request, verbatim,
// plus the global item indices this worker is responsible for. Carrying the
// original request means the worker re-derives every campaign input (fault
// sample, per-chip seeds, retest policy) from the same bytes the client
// sent — there is no second, lossy encoding of campaign parameters to
// drift from the single-node path.
type Shard struct {
	// Request is the original campaign request body, untouched.
	Request json.RawMessage `json:"request"`
	// Index lists the global item indices (into the campaign's fault sample
	// or chip population) assigned to this shard, ascending.
	Index []int `json:"index"`
}

// JobStatus mirrors the fields of the service's job status lines that the
// cluster client needs: identity, lifecycle, outcome. Extra fields are
// ignored on decode, so the worker side may grow its status shape freely.
type JobStatus struct {
	ID            string          `json:"id"`
	State         string          `json:"state"`
	Error         string          `json:"error,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
	EventsDropped int64           `json:"events_dropped,omitempty"`
}

// terminal reports whether the state string is a final job state.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// Health is the GET /healthz response shape shared by every node. The
// service package uses this type to render the endpoint and the cluster
// client uses it to decode peers, so the probe contract cannot drift.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Queue and pool saturation, for ops probes and the neurofleet SLO
	// checks (no Prometheus scrape needed).
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	WorkersBusy   int `json:"workers_busy"`
	// Cluster is present on nodes configured with peers.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth describes a node's view of its ring.
type ClusterHealth struct {
	// Role is "coordinator" or "worker".
	Role  string       `json:"role"`
	Peers []PeerHealth `json:"peers"`
}

// PeerHealth is one probed ring member.
type PeerHealth struct {
	URL        string `json:"url"`
	OK         bool   `json:"ok"`
	QueueDepth int    `json:"queue_depth"`
	Error      string `json:"error,omitempty"`
}

// ShardEvent is the progress event the coordinator publishes on its own
// job stream as shards move through the fan-out — interleaved with the
// coordinator job's status lines, so a client streaming a sharded campaign
// watches per-worker progress live.
type ShardEvent struct {
	Event  string `json:"event"` // always "shard"
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	State  string `json:"state"` // "dispatched", "done", "retrying", "failed"
	Items  int    `json:"items"`
	// Attempt counts delivery attempts for this shard (1 = first try).
	Attempt int `json:"attempt,omitempty"`
	// Error carries the failure that triggered a retry or exhausted the
	// candidates.
	Error string `json:"error,omitempty"`
}

// ShardResult is one completed shard: which worker ran it, which global
// indices it covered, and the worker's raw result JSON for the service
// layer to decode and merge.
type ShardResult struct {
	Shard  int
	Worker string
	Index  []int
	Result json.RawMessage
}

// Options tunes the clients of a Coordinator. The zero value is usable:
// every knob has a documented default.
type Options struct {
	// BusyRetries is how many times a 503 from one worker is retried on
	// that same worker before counting as a delivery failure (default 8).
	BusyRetries int
	// BusySleepCap caps the per-503 Retry-After sleep (default 1s). Tests
	// and load generators lower it; the header value is honored up to this
	// cap.
	BusySleepCap time.Duration
	// RequestTimeout bounds control-plane calls: submit, cancel, health,
	// artifact fetch (default 30s). Shard result streaming is not bounded
	// by it — campaigns outlive any fixed timeout; cancellation flows
	// through the context instead.
	RequestTimeout time.Duration
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.BusyRetries <= 0 {
		o.BusyRetries = 8
	}
	if o.BusySleepCap <= 0 {
		o.BusySleepCap = time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}
