// Exact fault collapsing: the drivers evaluate one representative per
// fault-equivalence class and broadcast its verdict to the other members.
//
// On one item, faultSite derives a synapse fault's faulty train from
// exactly five things: the kind, the boundary, the post neuron, the
// presynaptic neuron's golden train and the bits of the item's programmed
// weight (ω̂ is fixed per evaluator). The memo key, the packed pass and the
// verdict all follow from that train. So two synapse faults whose tuples
// match on every item get the same verdict on every item. This is the
// classic ATPG collapsing step, made exact per test set rather than
// structural. The paper's configurations give every synapse into a neuron
// the same weight and the same presynaptic train, so a whole synapse
// universe collapses to about one class per post neuron.
//
// Neuron faults collapse only with exact duplicates of themselves. A fault
// that is not a fault of the chip (fault.Fault.In: an unknown kind, or a
// site outside the architecture) never joins a class, so it represents
// itself, and a caller that checks the representatives checks every fault.

package faultsim

import (
	"math"
	"math/bits"
	"slices"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

// Classes is an exact fault-equivalence partition of one fault list over
// one Golden: every member of a class gets its representative's verdict on
// every item.
type Classes struct {
	// Reps holds each class's representative, its first member, as an
	// index into the fault list. Classes are numbered in first-seen order,
	// so Reps is ascending.
	Reps []int32
	// Of maps each fault of the list to its class.
	Of []int32
	// size counts each class's members.
	size []int32
}

// open starts a class represented by fault i and returns its number.
func (c *Classes) open(i int) int32 {
	c.Reps = append(c.Reps, int32(i))
	c.size = append(c.size, 0)
	return int32(len(c.Reps) - 1)
}

// join puts fault i into class k.
func (c *Classes) join(i int, k int32) {
	c.Of[i] = k
	c.size[k]++
}

// members counts the faults whose classes are represented by the lanes of
// idx (a packed group of representatives) set in lanes.
func (c *Classes) members(idx []int, lanes uint64) int {
	n := 0
	for ; lanes != 0; lanes &= lanes - 1 {
		n += int(c.size[c.Of[idx[bits.TrailingZeros64(lanes)]]])
	}
	return n
}

// collapseIndex is the part of the synapse class key that depends on the
// Golden alone. It is built once per Golden, on the first synapse fault a
// Collapse call sees, so neuron-only campaigns never pay for it.
type collapseIndex struct {
	// w[b] holds boundary b's weight matrix of each distinct item network,
	// in first-use order: a weight compared on each of them is compared on
	// every item.
	w [][][]float64
	// width[b] is the width of boundary b's post layer.
	width []int
	// pre[b][p] interns the golden trains of neuron p of layer b across
	// the items: pre[b][p] == pre[b][q] exactly when the two neurons fired
	// identically on every item. The ID is the lowest such neuron index.
	pre [][]int32
	// postBase[b] is the offset of boundary b's post neurons in a flat
	// per-(boundary, post) array of posts entries.
	postBase []int
	posts    int
}

// collapseIndex returns the Golden's collapse index, building it on first
// use.
func (g *Golden) collapseIndex() *collapseIndex {
	g.collapseOnce.Do(func() { g.collapse = newCollapseIndex(g) })
	return g.collapse
}

func newCollapseIndex(g *Golden) *collapseIndex {
	arch := g.ts.Arch
	B := arch.Boundaries()
	var nets []*snn.Network
	for i := range g.items {
		if n := g.items[i].net; !slices.Contains(nets, n) {
			nets = append(nets, n)
		}
	}
	x := &collapseIndex{w: make([][][]float64, B), width: arch[1:], pre: make([][]int32, B), postBase: make([]int, B)}
	for b := 0; b < B; b++ {
		for _, n := range nets {
			x.w[b] = append(x.w[b], n.W[b])
		}
		x.pre[b] = internTrains(g.items, b, arch[b])
		x.postBase[b] = x.posts
		x.posts += arch[b+1]
	}
	return x
}

// internTrains returns, for each neuron of layer k, the lowest index of a
// neuron whose golden train equals its own on every item.
func internTrains(items []goldenItem, k, width int) []int32 {
	ids := make([]int32, width)
	t := newIDTable(width)
	for p := 0; p < width; p++ {
		h := uint64(hashSeed)
		for i := range items {
			h = hashWord(h, items[i].trace.X[k][p])
		}
		ids[p] = int32(p)
		s := t.home(h)
		for ; t.slots[s] != 0; s = t.next(s) {
			if q := t.id(s, h); q >= 0 && sameTrains(items, k, int(q), p) {
				ids[p] = q
				break
			}
		}
		if t.slots[s] == 0 {
			t.put(s, h, int32(p))
		}
	}
	return ids
}

// sameTrains reports whether neurons p and q of layer k fired identically
// on every item.
func sameTrains(items []goldenItem, k, p, q int) bool {
	for i := range items {
		if x := items[i].trace.X[k]; x[p] != x[q] {
			return false
		}
	}
	return true
}

// hashSynapse hashes a synapse fault's exact class key.
func (x *collapseIndex) hashSynapse(kind fault.Kind, s snn.SynapseID) uint64 {
	h := hashWord(hashSeed, uint64(kind)<<48|uint64(s.Boundary)<<32|uint64(s.Post))
	h = hashWord(h, uint64(x.pre[s.Boundary][s.Pre]))
	at := s.Pre*x.width[s.Boundary] + s.Post
	for _, w := range x.w[s.Boundary] {
		h = hashWord(h, math.Float64bits(w[at]))
	}
	return h | 1
}

// sameSynapse reports whether the in-range synapses (b, p, j) and
// (b, q, j) see identical presynaptic trains and weight bits on every
// item.
func (x *collapseIndex) sameSynapse(b, p, q, j int) bool {
	if p == q {
		return true
	}
	if pre := x.pre[b]; pre[p] != pre[q] {
		return false
	}
	ip, iq := p*x.width[b]+j, q*x.width[b]+j
	for _, w := range x.w[b] {
		if math.Float64bits(w[ip]) != math.Float64bits(w[iq]) {
			return false
		}
	}
	return true
}

// lastClass is the latest synapse class seen at one (boundary, post
// neuron): its number plus one (0 for none), kind and representative's pre
// neuron.
type lastClass struct {
	k, pre int32
	kind   fault.Kind
}

// Collapse partitions faults into exact equivalence classes on g's items
// (see the top of collapse.go). It costs expected O(1) per fault and
// allocates only the class arrays, a per-(boundary, post) cache and a
// table sized for up to 16,384 classes, which grows only past that.
func (g *Golden) Collapse(faults []fault.Fault) Classes {
	arch := g.ts.Arch
	// Most lists either collapse to a few hundred classes or hold at most
	// a thousand distinct faults, so this capacity rarely grows. The three
	// class arrays share one allocation.
	n, capacity := len(faults), min(len(faults), 1024)
	buf := make([]int32, n+2*capacity)
	c := Classes{Of: buf[:n:n], Reps: buf[n : n : n+capacity], size: buf[n+capacity : n+capacity]}
	var (
		x *collapseIndex
		// last[(boundary, post)] is the latest synapse class seen at that
		// post neuron. Synapse universes list the pre neurons of one post
		// neuron in a run, and those usually share a class, so most
		// synapse faults resolve here without hashing.
		last []lastClass
	)
	// Sized on first use so that lists of up to 16,384 classes never
	// rehash: growing is the dominant cost when nothing collapses, and the
	// table is 256 KiB at most until then.
	t := idTable{hint: min(len(faults), 1<<14)}
	// same reports whether fault f belongs to class k.
	same := func(k int32, f *fault.Fault) bool {
		r := &faults[c.Reps[k]]
		switch {
		case r.Kind != f.Kind:
			return false
		case f.Kind.IsNeuronFault():
			return *r == *f
		default:
			a, b := r.Synapse, f.Synapse
			return a.Boundary == b.Boundary && a.Post == b.Post && x.sameSynapse(b.Boundary, a.Pre, b.Pre, b.Post)
		}
	}
	// Neuron faults listed in strictly increasing (kind, layer, index)
	// order, as universes list them, cannot duplicate one another, so each
	// opens a class without the table. The first one out of order enters
	// the neuron classes opened so far, and the table takes over.
	ordered, prev := true, uint64(0)
	for i := range faults {
		f := &faults[i]
		var h uint64 // 0: f never joins a class
		var at *lastClass
		switch {
		case !f.In(arch):
		case f.Kind.IsNeuronFault():
			if key := neuronKey(f) + 1; ordered && key > prev {
				prev = key
				c.join(i, c.open(i))
				continue
			}
			if ordered {
				ordered = false
				for k, r := range c.Reps {
					if rf := &faults[r]; rf.Kind.IsNeuronFault() && rf.In(arch) {
						t.insert(neuronHash(rf), int32(k))
					}
				}
			}
			h = neuronHash(f)
		default:
			s := f.Synapse
			if x == nil {
				x = g.collapseIndex()
				last = make([]lastClass, x.posts)
			}
			at = &last[x.postBase[s.Boundary]+s.Post]
			if at.k != 0 && at.kind == f.Kind && x.sameSynapse(s.Boundary, int(at.pre), s.Pre, s.Post) {
				c.join(i, at.k-1)
				continue
			}
			h = x.hashSynapse(f.Kind, s)
		}
		k := int32(-1)
		if h != 0 {
			if t.full() {
				t.grow()
			}
			s := t.home(h)
			for ; t.slots[s] != 0; s = t.next(s) {
				if q := t.id(s, h); q >= 0 && same(q, f) {
					k = q
					break
				}
			}
			if k < 0 {
				t.put(s, h, int32(len(c.Reps)))
			}
		}
		if k < 0 {
			k = c.open(i)
		}
		c.join(i, k)
		if at != nil {
			*at = lastClass{k: k + 1, pre: int32(faults[c.Reps[k]].Synapse.Pre), kind: f.Kind}
		}
	}
	return c
}

// neuronKey packs an in-range neuron fault's kind and site, ordered as
// universes list them.
func neuronKey(f *fault.Fault) uint64 {
	return uint64(f.Kind)<<48 | uint64(f.Neuron.Layer)<<32 | uint64(f.Neuron.Index)
}

// neuronHash hashes an in-range neuron fault's class key.
func neuronHash(f *fault.Fault) uint64 { return hashWord(hashSeed, neuronKey(f)) | 1 }

const (
	hashSeed = 0x243F6A8885A308D3
	hashMul  = 0x9E3779B97F4A7C15
)

// hashWord folds the word v into the running hash h. The multiply leaves
// the high bits best mixed, so tables home on those.
func hashWord(h, v uint64) uint64 { return (bits.RotateLeft64(h, 27) ^ v) * hashMul }

// idTable is an open-addressed set of small non-negative IDs with linear
// probing. A slot packs the high 32 bits of an ID's hash with the ID plus
// one; an empty slot is zero. Tables home on the high hash bits, so growing
// rehomes every ID from its slot alone. The caller decides membership on
// the exact key; a matching tag only says the key is worth comparing. The
// zero table holds nothing and allocates on its first grow.
type idTable struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // IDs stored
	hint  int  // IDs the first allocation holds before it must grow
}

const tagMask = 0xFFFFFFFF00000000

// newIDTable returns a table that holds n IDs before it must grow.
func newIDTable(n int) idTable {
	t := idTable{hint: n}
	t.grow()
	return t
}

func (t *idTable) home(h uint64) int { return int(h >> t.shift) }

func (t *idTable) next(s int) int { return (s + 1) & (len(t.slots) - 1) }

// id returns the ID in slot s when its tag matches h, else -1.
func (t *idTable) id(s int, h uint64) int32 {
	if v := t.slots[s]; v&tagMask == h&tagMask {
		return int32(uint32(v)) - 1
	}
	return -1
}

// put stores id with hash h in the empty slot s.
func (t *idTable) put(s int, h uint64, id int32) {
	t.slots[s] = h&tagMask | uint64(id+1)
	t.n++
}

// insert stores id with hash h; the table must not hold id yet.
func (t *idTable) insert(h uint64, id int32) {
	if t.full() {
		t.grow()
	}
	s := t.home(h)
	for t.slots[s] != 0 {
		s = t.next(s)
	}
	t.put(s, h, id)
}

// full reports whether one more ID would take the load past one half.
func (t *idTable) full() bool { return 2*(t.n+1) > len(t.slots) }

// grow allocates the table, sized for hint IDs, or doubles it.
func (t *idTable) grow() {
	old := t.slots
	size := 2 * len(old)
	for size < 16 || size < 2*t.hint {
		size = max(16, 2*size)
	}
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, v := range old {
		if v == 0 {
			continue
		}
		s := t.home(v)
		for t.slots[s] != 0 {
			s = t.next(s)
		}
		t.slots[s] = v
	}
}
