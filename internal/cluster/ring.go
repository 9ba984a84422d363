// Package cluster turns a set of neurotestd nodes into one test floor: a
// coordinator shards campaign item populations across workers by consistent
// hashing, fans the shards out over the workers' existing HTTP job API, and
// hands the partial results back to the caller for an exact integer merge
// (DESIGN.md §14).
//
// The package is deliberately simulation-free: it never imports the
// generator, tester or service layers. It moves opaque request JSON and
// global item indices; the service layer on each side owns the typed
// request/result schemas and the merge semantics. That keeps the wire
// contract small and the shard assignment — which is cache-key-adjacent and
// therefore under the determinism analyzer — trivially reproducible.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// virtualNodes is the per-node point count on the hash ring. 64 points per
// node keeps the assignment imbalance across a handful of workers within a
// few percent while the ring stays tiny.
const virtualNodes = 64

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is a consistent-hash ring over worker nodes. Keys (fault-site
// strings, chip session keys) map to the node owning the first ring point
// at or after the key's hash. The ring is immutable after construction and
// fully determined by the node list: the same inputs shard the same way on
// every coordinator, every run.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring over nodes (in the given order; the order defines
// failover precedence for Candidates). An empty node list yields a ring
// whose Owner always returns -1.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for n, name := range r.nodes {
		for v := 0; v < virtualNodes; v++ {
			h := hash64(name + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically unlikely with SHA-256 points) break by node
		// index so the sort — and thus the assignment — is total.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the index of the node owning key, or -1 on an empty ring.
func (r *Ring) Owner(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}

// Candidates returns every node index in failover order for key: the owner
// first, then the remaining nodes walking clockwise around the ring from
// the owner's point (deduplicated). A shard whose owner is unreachable is
// retried on Candidates[1], then Candidates[2], … — the same deterministic
// order on every coordinator.
func (r *Ring) Candidates(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	out := make([]int, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// hash64 is the ring's position function: the first 8 bytes of SHA-256,
// big-endian. SHA-256 keeps the ring aligned with the artifact cache's
// content addressing (same primitive, byte-stable across platforms).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
