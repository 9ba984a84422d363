// The fault campaign: the two drivers of the packed kernel. Each collapses
// its fault list once (collapse.go), packs the representatives of the
// classes that are faults of the chip into lane groups, runs them on the
// worker pool with one evaluator per pool slot, gives every member its
// class's verdict and flushes the obs counters once per call.

package faultsim

import (
	"context"
	"math/bits"
	"slices"

	"neurotest/internal/fault"
	"neurotest/internal/pool"
)

// sourceLayer returns the layer whose spike trains a fault deviates — the
// lane-grouping key of the packed kernel. Unknown kinds map to -1.
func sourceLayer(f fault.Fault) int {
	switch f.Kind {
	case fault.NASF, fault.ESF, fault.HSF:
		return f.Neuron.Layer
	case fault.SWF, fault.SASF:
		return f.Synapse.Boundary + 1
	default:
		return -1
	}
}

// PackGroups partitions fault indices into packed-kernel batches: faults of
// one kind deviating one layer, at most 64 per group (one bit-lane each).
// Groups and their members preserve first-seen input order, so batched
// evaluation is byte-stable regardless of map iteration.
func PackGroups(faults []fault.Fault) [][]int { return packGroups(faults, nil) }

// packGroups is PackGroups over the faults at the listed indices only, or
// over every fault when idx is nil.
func packGroups(faults []fault.Fault, idx []int32) [][]int {
	type groupKey struct {
		kind  fault.Kind
		layer int
	}
	n := len(faults)
	if idx != nil {
		n = len(idx)
	}
	pos := make(map[groupKey]int)
	var groups [][]int
	for r := 0; r < n; r++ {
		i := r
		if idx != nil {
			i = int(idx[r])
		}
		f := faults[i]
		k := groupKey{kind: f.Kind, layer: sourceLayer(f)}
		gi, ok := pos[k]
		if !ok || len(groups[gi]) == 64 {
			groups = append(groups, nil)
			gi = len(groups) - 1
			pos[k] = gi
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// slot returns pool slot w's evaluator, building it on the slot's first
// task.
func (g *Golden) slot(evals []*evaluator, w int, values fault.Values) *evaluator {
	if evals[w] == nil {
		evals[w] = g.newEvaluator(values)
	}
	return evals[w]
}

// verdict is one class's outcome in a Detects call.
type verdict uint8

const (
	unresolved verdict = iota // outside the chip, or its group was cut short
	missed                    // no item detects the class
	caught                    // some item detects the class
)

// Verdicts is the outcome of one Detects call: a verdict per exact
// equivalence class of its fault list, and the class of each fault.
type Verdicts struct {
	of    []int32   // class of each fault
	state []verdict // verdict of each class
}

// Detected reports the verdict of fault i of the list Detects ran on: det
// is true when some item detects it. ok is false when the fault got no
// verdict: it is not a fault of the chip (fault.Fault.In), or the call was
// cancelled before its class's group finished.
func (v Verdicts) Detected(i int) (det, ok bool) {
	s := v.state[v.of[i]]
	return s == caught, s != unresolved
}

// Classes returns the number of equivalence classes the fault list formed,
// each fault outside the chip a class of its own.
func (v Verdicts) Classes() int { return len(v.state) }

// Detects fault-simulates faults under values with the packed kernel and
// returns their verdicts. It collapses the list into exact equivalence
// classes, packs the representatives that are faults of the chip into lane
// groups, and runs the groups on the worker pool, one evaluator per slot.
// A group's item scan drops each lane at its first detecting item and
// stops once every lane is detected. A fault that is not a fault of the
// chip (fault.Fault.In) is a class of its own that is never simulated and
// gets no verdict.
//
// Workers stop claiming groups once ctx is cancelled, and a running group
// checks ctx between items; a group cut short gives no verdicts. The call
// then returns ctx.Err() with the verdicts it reached. Groups share the
// Golden's memo, so above one worker the split between the memo hits and
// misses it publishes depends on scheduling; their sum and the verdicts do
// not.
func (g *Golden) Detects(ctx context.Context, values fault.Values, faults []fault.Fault) (Verdicts, error) {
	cls := g.collapse(faults)
	groups := packGroups(faults, cls.inChip(faults, g.ts.Arch))
	evals := make([]*evaluator, pool.Workers(len(groups)))
	// A scan's found word holds its group's detected lanes; finished says
	// the scan was not cut short.
	type scan struct {
		found    uint64
		finished bool
	}
	scans, done := pool.Run(ctx, len(groups), func(gi, w int) scan {
		e := g.slot(evals, w, values)
		idx := groups[gi]
		left := fullMask(len(idx))
		for it := range g.items {
			if left == 0 {
				break
			}
			if ctx.Err() != nil {
				return scan{}
			}
			left &^= e.evalItem(&g.items[it], faults, idx, left)
		}
		return scan{found: fullMask(len(idx)) &^ left, finished: true}
	})
	v := Verdicts{of: cls.of, state: make([]verdict, len(cls.reps))}
	evaluated, cut := 0, false
	for gi, idx := range groups {
		if !done[gi] || !scans[gi].finished {
			cut = true
			continue
		}
		evaluated += len(idx)
		for l, i := range idx {
			v.state[cls.of[i]] = missed + verdict(scans[gi].found>>uint(l)&1)
		}
	}
	// Every fault of the chip reached its class's verdict unless a group
	// was cut short.
	resolved := len(faults) - cls.outside
	if cut {
		resolved = 0
		for _, k := range cls.of {
			if v.state[k] != unresolved {
				resolved++
			}
		}
	}
	flush(evals, resolved, evaluated)
	return v, ctx.Err()
}

// DetectsMatrix fault-simulates every fault on every item under values with
// the packed kernel and returns, index-aligned with faults, the set of
// items detecting each fault as a bitset: item i detects faults[f] when bit
// i%64 of rows[f][i/64] is set. Like Detects it collapses the list once and
// evaluates one representative per class; each member's row is a copy of
// its representative's, in its own backing array. A fault that is not a
// fault of the chip gets no row (nil). Unlike Detects it never ends a scan
// early — fault dictionaries, compaction and greedy selection need every
// item's verdict.
//
// The work is split by item on the worker pool: one task runs every packed
// group on its item, in group order, on its slot's evaluator. An item's
// memo shard is touched by no other task, so its one writer visits its
// keys in exactly the serial order, and memo hits and misses equal a
// serial scan's at any worker count. Workers stop claiming items once ctx
// is cancelled; the call then returns (nil, ctx.Err()).
func (g *Golden) DetectsMatrix(ctx context.Context, values fault.Values, faults []fault.Fault) ([][]uint64, error) {
	cls := g.collapse(faults)
	reps := cls.inChip(faults, g.ts.Arch)
	groups := packGroups(faults, reps)
	evals := make([]*evaluator, pool.Workers(len(g.items)))
	// dets[it][gi] is the detected-lane word of group gi on item it.
	dets, done := pool.Run(ctx, len(g.items), func(it, w int) []uint64 {
		e := g.slot(evals, w, values)
		det := make([]uint64, len(groups))
		for gi, idx := range groups {
			det[gi] = e.evalItem(&g.items[it], faults, idx, fullMask(len(idx)))
		}
		return det
	})
	if slices.Contains(done, false) {
		flush(evals, 0, 0)
		return nil, ctx.Err()
	}
	words := (len(g.items) + 63) / 64
	flat := make([]uint64, len(faults)*words)
	rows := make([][]uint64, len(faults))
	row := func(i int) []uint64 { return flat[i*words : (i+1)*words : (i+1)*words] }
	for _, r := range reps {
		rows[r] = row(int(r))
	}
	for it, det := range dets {
		for gi, idx := range groups {
			for d := det[gi]; d != 0; d &= d - 1 {
				rows[idx[bits.TrailingZeros64(d)]][it/64] |= 1 << uint(it%64)
			}
		}
	}
	for i, k := range cls.of {
		if r := cls.reps[k]; int(r) != i && rows[r] != nil {
			rows[i] = row(i)
			copy(rows[i], rows[r])
		}
	}
	flush(evals, len(faults)-cls.outside, len(reps))
	return rows, nil
}
