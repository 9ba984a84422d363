package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"neurotest/internal/cluster"
)

// This file is the service side of the distributed test floor (DESIGN.md
// §14): a node's cluster role, the artifact cache's peer tier and the
// healthz peer sweep. A coordinator runs each campaign through the same
// validation and merge as a single node and fans the campaign's global
// item indices out across the worker ring (campaign.go); workers run their
// shards through the same run.

// peerFetchTimeout bounds one whole peer-tier artifact fetch (all
// candidates); the peer tier is an optimization, so it fails fast into a
// local rebuild rather than stalling a campaign on a dead peer.
const peerFetchTimeout = 10 * time.Second

// peerProbeTimeout bounds the per-peer healthz reachability sweep.
const peerProbeTimeout = time.Second

// initCluster wires the node's cluster role from its config: a coordinator
// gets the shard fan-out machinery, and any node with peers gets the
// two-tier artifact cache (local LRU first, then peer fetch by content key,
// then build).
func (s *Server) initCluster() {
	peers := s.cfg.PeerList()
	if len(peers) == 0 {
		return
	}
	s.peerRing = cluster.NewRing(peers, 0)
	for _, p := range peers {
		s.peerClients = append(s.peerClients, cluster.NewClient(p, cluster.Options{}))
	}
	s.cache.SetPeerFetch(s.fetchSuiteFromPeers)
	if s.cfg.Coordinator {
		coord, err := cluster.New(peers, cluster.Options{})
		if err == nil {
			s.coord = coord
		}
	}
}

// fetchSuiteFromPeers is the cache's peer tier: try the ring members in the
// key's candidate order (the node most likely to have built the artifact
// first) and return the first successful byte payload. The cache validates
// the bytes; this function only moves them.
func (s *Server) fetchSuiteFromPeers(key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), peerFetchTimeout)
	defer cancel()
	var lastErr error
	for _, i := range s.peerRing.Candidates(key) {
		raw, err := s.peerClients[i].FetchArtifact(ctx, key)
		if err == nil {
			return raw, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("service: no peers configured")
	}
	return nil, lastErr
}

// --- health ---------------------------------------------------------------

// clusterHealth assembles the node's healthz body: queue/pool saturation
// always, plus a peer-reachability sweep on nodes configured with peers
// (skipped when the probe itself came from a peer — the shallow probe the
// cluster client sends — so two nodes probing each other cannot recurse).
func (s *Server) clusterHealth(r *http.Request) cluster.Health {
	h := cluster.Health{
		Status:        "ok",
		UptimeSeconds: now().Sub(s.started).Seconds(),
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.queue.Capacity(),
		Workers:       s.cfg.Workers,
		WorkersBusy:   s.queue.CountByState()["running"],
	}
	if len(s.peerClients) == 0 || r.URL.Query().Get("peers") == "0" {
		return h
	}
	role := "worker"
	if s.coord != nil {
		role = "coordinator"
	}
	ch := &cluster.ClusterHealth{Role: role}
	ctx, cancel := context.WithTimeout(r.Context(), peerProbeTimeout)
	defer cancel()
	for _, c := range s.peerClients {
		ph := cluster.PeerHealth{URL: c.Base}
		peer, err := c.Health(ctx)
		if err != nil {
			ph.Error = err.Error()
		} else {
			ph.OK = true
			ph.QueueDepth = peer.QueueDepth
		}
		ch.Peers = append(ch.Peers, ph)
	}
	h.Cluster = ch
	return h
}
