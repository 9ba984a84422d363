package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fault|SWF|layer=%d|neuron=%d", i%7, i)
	}
	return keys
}

func TestRingDeterministic(t *testing.T) {
	nodes := []string{"http://w0:1", "http://w1:1", "http://w2:1"}
	a := NewRing(nodes)
	b := NewRing(nodes)
	for _, k := range ringKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("two rings over the same nodes disagree on %q: %d vs %d", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://w0:1", "http://w1:1", "http://w2:1"}
	r := NewRing(nodes)
	counts := make([]int, len(nodes))
	keys := ringKeys(9000)
	for _, k := range keys {
		w := r.Owner(k)
		if w < 0 || w >= len(nodes) {
			t.Fatalf("Owner(%q) = %d, out of range", k, w)
		}
		counts[w]++
	}
	// 64 virtual nodes keep a 3-node ring within loose bounds: no node
	// should own less than ~half or more than ~double its fair share.
	for i, c := range counts {
		if c < len(keys)/6 || c > len(keys)/3*2 {
			t.Errorf("node %d owns %d of %d keys (counts %v): imbalanced", i, c, len(keys), counts)
		}
	}
}

func TestRingCandidates(t *testing.T) {
	nodes := []string{"http://w0:1", "http://w1:1", "http://w2:1", "http://w3:1"}
	r := NewRing(nodes)
	for _, k := range ringKeys(200) {
		cand := r.Candidates(k)
		if len(cand) != len(nodes) {
			t.Fatalf("Candidates(%q) = %v, want all %d nodes", k, cand, len(nodes))
		}
		if cand[0] != r.Owner(k) {
			t.Fatalf("Candidates(%q)[0] = %d, want owner %d", k, cand[0], r.Owner(k))
		}
		seen := make(map[int]bool)
		for _, n := range cand {
			if n < 0 || n >= len(nodes) || seen[n] {
				t.Fatalf("Candidates(%q) = %v: invalid or duplicate node", k, cand)
			}
			seen[n] = true
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("anything"); got != -1 {
		t.Errorf("empty ring Owner = %d, want -1", got)
	}
	if got := empty.Candidates("anything"); got != nil {
		t.Errorf("empty ring Candidates = %v, want nil", got)
	}

	one := NewRing([]string{"http://solo:1"})
	for _, k := range ringKeys(50) {
		if one.Owner(k) != 0 {
			t.Fatalf("single-node ring Owner(%q) = %d, want 0", k, one.Owner(k))
		}
	}
	if len(one.nodes) != 1 || one.nodes[0] != "http://solo:1" {
		t.Errorf("nodes: %q", one.nodes)
	}
}
