package service

import (
	"context"
	"net/http"
	"time"

	"neurotest/internal/cluster"
)

// This file is the service side of the distributed test floor (DESIGN.md
// §14): a node's cluster role and the healthz peer sweep. A coordinator
// runs each campaign through the same validation and merge as a single
// node and fans the campaign's global item indices out across the worker
// ring (campaign.go); workers run their shards through the same run.

// peerProbeTimeout bounds the per-peer healthz reachability sweep.
const peerProbeTimeout = time.Second

// initCluster wires the node's cluster role from its config: a coordinator
// gets the shard fan-out machinery, and any node with peers probes them in
// its healthz sweep.
func (s *Server) initCluster() {
	peers := s.cfg.PeerList()
	if len(peers) == 0 {
		return
	}
	for _, p := range peers {
		s.peerClients = append(s.peerClients, cluster.NewClient(p, cluster.Options{}))
	}
	if s.cfg.Coordinator {
		coord, err := cluster.New(peers, cluster.Options{})
		if err == nil {
			s.coord = coord
		}
	}
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
