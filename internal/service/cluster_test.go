package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"neurotest/internal/cluster"
)

// newWorkerFloor starts n standalone worker daemons and returns their base
// URLs plus a closer for each (so tests can kill one mid-campaign).
func newWorkerFloor(t *testing.T, n int, mod func(*Config)) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		cfg := testConfig()
		if mod != nil {
			mod(&cfg)
		}
		_, ts := newTestServer(t, cfg)
		servers[i] = ts
		urls[i] = ts.URL
	}
	return servers, urls
}

// newCoordinator starts a coordinator daemon over the worker URLs.
func newCoordinator(t *testing.T, workerURLs []string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.Coordinator = true
	cfg.Peers = strings.Join(workerURLs, ",")
	return newTestServer(t, cfg)
}

// runCampaign submits a campaign body, waits for the terminal state, and
// returns the result object (the JSON round-trip loses no precision: Go
// encodes float64 shortest-round-trip, so equal decoded maps means
// bit-identical results).
func runCampaign(t *testing.T, base, path, body string) map[string]any {
	t.Helper()
	var st JobStatus
	resp := postJSON(t, base+path, body, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
	}
	final := pollJob(t, base, st.ID)
	if final.State != "done" {
		t.Fatalf("%s job finished %s: %s", path, final.State, final.Error)
	}
	m, ok := final.Result.(map[string]any)
	if !ok {
		t.Fatalf("%s result is %T, want object", path, final.Result)
	}
	return m
}

const (
	clusterCoverageBody = `{"arch":[12,8,4],"kind":"all","sample":24,"seed":5}`
	clusterSessionsBody = `{"arch":[12,8,4],"chips":12,"faulty":true,"sample":6,` +
		`"max_retests":2,"vote":true,"tolerance":1,"variation_sigma":0.1,"drop_p":0.05,"seed":9}`
)

// TestShardedCampaignsBitIdentical is the distributed floor's core
// guarantee: the merged report of a sharded campaign equals a single node's
// report exactly — same integers, same float bits, same undetected order —
// for 1, 2 and 3 workers.
func TestShardedCampaignsBitIdentical(t *testing.T) {
	_, single := newTestServer(t, testConfig())
	wantCov := runCampaign(t, single.URL, "/v1/coverage", clusterCoverageBody)
	wantSess := runCampaign(t, single.URL, "/v1/sessions", clusterSessionsBody)

	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			_, urls := newWorkerFloor(t, n, nil)
			_, coord := newCoordinator(t, urls)
			gotCov := runCampaign(t, coord.URL, "/v1/coverage", clusterCoverageBody)
			if !reflect.DeepEqual(gotCov, wantCov) {
				t.Errorf("sharded coverage diverges from single-node:\n got  %v\n want %v", gotCov, wantCov)
			}
			gotSess := runCampaign(t, coord.URL, "/v1/sessions", clusterSessionsBody)
			if !reflect.DeepEqual(gotSess, wantSess) {
				t.Errorf("sharded sessions diverge from single-node:\n got  %v\n want %v", gotSess, wantSess)
			}
		})
	}
}

// TestShardedStreamCarriesShardEvents checks the coordinator's job stream
// interleaves per-shard progress events with its status lines.
func TestShardedStreamCarriesShardEvents(t *testing.T) {
	_, urls := newWorkerFloor(t, 2, nil)
	_, coord := newCoordinator(t, urls)

	var st JobStatus
	if resp := postJSON(t, coord.URL+"/v1/coverage", clusterCoverageBody, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	pollJob(t, coord.URL, st.ID)

	// Streaming a finished job replays its events before the terminal line.
	resp, err := http.Get(coord.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	stream := string(buf[:n])
	if !strings.Contains(stream, `"event":"shard"`) || !strings.Contains(stream, `"state":"done"`) {
		t.Errorf("coordinator stream carries no shard events:\n%s", stream)
	}
}

// TestWorkerKilledMidCampaign kills one of two workers while its shard is
// dwelling on the simulated fixture; the coordinator must fail the shard
// over to the survivor and still produce the exact single-node report.
func TestWorkerKilledMidCampaign(t *testing.T) {
	_, single := newTestServer(t, testConfig())
	want := runCampaign(t, single.URL, "/v1/coverage", clusterCoverageBody)

	servers, urls := newWorkerFloor(t, 2, func(c *Config) { c.HWDwell = 300 * time.Millisecond })
	_, coord := newCoordinator(t, urls)

	var st JobStatus
	if resp := postJSON(t, coord.URL+"/v1/coverage", clusterCoverageBody, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Let the shards dispatch and settle into the dwell, then kill worker 0.
	time.Sleep(100 * time.Millisecond)
	var once sync.Once
	kill := func() {
		servers[0].CloseClientConnections()
		servers[0].Close()
	}
	once.Do(kill)

	final := pollJob(t, coord.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("campaign finished %s after worker kill: %s", final.State, final.Error)
	}
	got, ok := final.Result.(map[string]any)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("post-failover result diverges from single-node:\n got  %v\n want %v", got, want)
	}
}

// TestHealthzCluster checks the enriched health body: saturation gauges on
// every node, per-peer reachability on cluster nodes, and the shallow form
// peers use to probe each other.
func TestHealthzCluster(t *testing.T) {
	servers, urls := newWorkerFloor(t, 2, nil)
	_, coord := newCoordinator(t, urls)

	var h cluster.Health
	getJSON(t, coord.URL+"/healthz", &h)
	if h.Status != "ok" || h.QueueCapacity != 8 || h.Workers != 2 {
		t.Errorf("healthz basics: %+v", h)
	}
	if h.Cluster == nil || h.Cluster.Role != "coordinator" || len(h.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster block: %+v", h.Cluster)
	}
	for _, p := range h.Cluster.Peers {
		if !p.OK {
			t.Errorf("peer %s unreachable on a healthy floor: %s", p.URL, p.Error)
		}
	}

	// Shallow probe: no cluster block, so peers probing each other terminate.
	var shallow cluster.Health
	getJSON(t, coord.URL+"/healthz?peers=0", &shallow)
	if shallow.Cluster != nil {
		t.Error("shallow healthz still sweeps peers")
	}

	// A worker configured with peers reports the worker role.
	cfgW := testConfig()
	cfgW.Peers = urls[1]
	_, tsw := newTestServer(t, cfgW)
	var wh cluster.Health
	getJSON(t, tsw.URL+"/healthz", &wh)
	if wh.Cluster == nil || wh.Cluster.Role != "worker" {
		t.Errorf("peer-configured worker healthz: %+v", wh.Cluster)
	}

	// Kill a worker: the sweep reports it unreachable.
	servers[0].CloseClientConnections()
	servers[0].Close()
	var down cluster.Health
	getJSON(t, coord.URL+"/healthz", &down)
	bad := 0
	for _, p := range down.Cluster.Peers {
		if !p.OK {
			bad++
			if p.Error == "" {
				t.Error("unreachable peer carries no error")
			}
		}
	}
	if bad != 1 {
		t.Errorf("%d peers reported down, want 1: %+v", bad, down.Cluster.Peers)
	}
}
