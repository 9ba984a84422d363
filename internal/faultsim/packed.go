// Bit-parallel fault simulation: the classic ATPG parallel-fault technique
// applied to spike trains. Up to 64 same-kind faults deviating the same
// layer are evaluated in one downstream pass, with one bit-lane per fault:
//
//   - each neuron's spike state for a timestep is one uint64 word (bit l =
//     "lane l's chip fired"), composed by masked bit-ops against the
//     Golden's immutable traces — a lane that has never deviated costs no
//     arithmetic at all, its bits are broadcast from the golden train;
//   - membrane potentials live in a per-lane structure-of-arrays scratch
//     (mp[j*64+lane]), materialized lazily: a lane's potential is seeded
//     from the Golden's packed trace store (goldenItem.gmp) the first
//     timestep the lane's input deviates, and carried branchlessly into the
//     lane word by the threshold sweep from then on;
//   - layer-to-layer propagation is deviation-sparse: instead of
//     re-integrating every synapse, the kernel adds per-lane weight
//     corrections only for presynaptic neurons whose lane word differs from
//     the golden train in this timestep.
//
// This is the package's only fault-evaluation kernel. evalItem runs one
// group on one item; DetectsBatch and DetectsMatrix are its two drivers. A
// fault-at-a-time scalar kernel lives in the tests as the differential
// oracle: differential and fuzz tests assert the packed verdicts — per fault
// and per (fault, item) — agree with it and with brute force on every fault
// kind.

package faultsim

import (
	"context"
	"math/bits"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

// sourceLayer returns the layer whose spike trains a fault deviates — the
// lane-grouping key of the packed kernel. Unknown kinds map to -1; their
// groups fail in faultSite.
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
func PackGroups(faults []fault.Fault) [][]int {
	type groupKey struct {
		kind  fault.Kind
		layer int
	}
	pos := make(map[groupKey]int)
	var groups [][]int
	for i, f := range faults {
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

// packedScratch is the per-evaluator working state of the packed kernel,
// allocated with the evaluator and reused across groups and items.
type packedScratch struct {
	// per-lane fault state for the current (group, item) evaluation
	site   [64]int
	trains [64]uint64
	// sgn[lane] is the first-hop correction direction of the current
	// timestep (+1 faulty-fired, -1 faulty-silent); only lanes in the
	// timestep's deviation set are ever read.
	sgn [64]float64
	// corr[lane] accumulates this timestep's weight corrections for the
	// neuron currently being integrated; cleared lane-by-lane after use so
	// it is all-zero between neurons.
	corr [64]float64
	// mp[k][j*64+lane] is lane-SoA membrane potential scratch (k >= 1);
	// dirty[k][j] flags the lanes whose potential has diverged from the
	// golden replay and must be integrated every timestep.
	mp    [][]float64
	dirty [][]uint64
	// per-output-lane spike-count deviation vs the golden count so far, and
	// the golden count prefix itself
	diff   []int8
	gsofar []int
	// deviation front: devAdd[i]/devSub[i] hold the lanes in which neuron i
	// of the current layer fired though the golden run did not / stayed
	// silent though the golden run fired; devIdx lists the touched neurons.
	// The nxt* set is the front being built for the following layer.
	devAdd, devSub []uint64
	nxtAdd, nxtSub []uint64
	devIdx, nxtIdx []int
	// sel holds per-front-entry ±1 lane selectors (sel[p*64+lane]) for the
	// SIMD correction path; allocated lazily the first time a front is dense
	// enough to take it.
	sel []float64
}

// selFor returns selector scratch for n front entries, growing it on demand.
func (ps *packedScratch) selFor(n int) []float64 {
	if cap(ps.sel) < n*64 {
		ps.sel = make([]float64, n*64)
	}
	return ps.sel[:n*64]
}

// init sizes the scratch for arch.
func (ps *packedScratch) init(arch snn.Arch) {
	L := arch.Layers()
	ps.mp = make([][]float64, L)
	ps.dirty = make([][]uint64, L)
	maxW := 0
	for k := 0; k < L; k++ {
		if arch[k] > maxW {
			maxW = arch[k]
		}
		if k > 0 {
			ps.mp[k] = make([]float64, arch[k]*64)
			ps.dirty[k] = make([]uint64, arch[k])
		}
	}
	nOut := arch[L-1]
	ps.diff = make([]int8, nOut*64)
	ps.gsofar = make([]int, nOut)
	ps.devAdd = make([]uint64, maxW)
	ps.devSub = make([]uint64, maxW)
	ps.nxtAdd = make([]uint64, maxW)
	ps.nxtSub = make([]uint64, maxW)
	ps.devIdx = make([]int, 0, maxW)
	ps.nxtIdx = make([]int, 0, maxW)
}

// DetectsBatch evaluates every fault with the packed kernel and returns the
// per-fault verdicts, index-aligned with faults: verdict i is true when any
// item of the test set detects faults[i]. Up to 64 faults share each
// downstream pass, a group's item scan stops once all its faults are
// detected, and the obs accounting is flushed once per call. The scan
// checks ctx between items; on cancellation it returns (nil, ctx.Err()).
func (e *Evaluator) DetectsBatch(ctx context.Context, faults []fault.Fault) ([]bool, error) {
	out := make([]bool, len(faults))
	resolved := 0
	defer func() { e.flushObsN(resolved) }()
	var groups [][]int
	if pregrouped(faults) {
		// Already one packed group (the shape the tester's campaign pool
		// always sends): skip the grouping map.
		groups = [][]int{identity64[:len(faults)]}
	} else {
		groups = PackGroups(faults)
	}
	for _, idx := range groups {
		pending := fullMask(len(idx))
		for it := range e.g.items {
			if pending == 0 {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			det := e.evalItem(&e.g.items[it], faults, idx, pending)
			pending &^= det
			resolved += bits.OnesCount64(det)
			for ; det != 0; det &= det - 1 {
				out[idx[bits.TrailingZeros64(det)]] = true
			}
		}
		resolved += bits.OnesCount64(pending)
	}
	return out, nil
}

// DetectsMatrix evaluates every fault on every item with the packed kernel
// and returns, index-aligned with faults, the set of items detecting each
// fault as a bitset: item i detects faults[f] when bit i%64 of
// rows[f][i/64] is set. Unlike DetectsBatch it never ends a scan early —
// fault dictionaries, compaction and greedy selection need every item's
// verdict. The obs accounting is flushed once per call. The scan checks ctx
// between items; on cancellation it returns (nil, ctx.Err()).
func (e *Evaluator) DetectsMatrix(ctx context.Context, faults []fault.Fault) ([][]uint64, error) {
	words := (len(e.g.items) + 63) / 64
	flat := make([]uint64, len(faults)*words)
	rows := make([][]uint64, len(faults))
	for f := range rows {
		rows[f] = flat[f*words : (f+1)*words : (f+1)*words]
	}
	resolved := 0
	defer func() { e.flushObsN(resolved) }()
	for _, idx := range PackGroups(faults) {
		lanes := fullMask(len(idx))
		for it := range e.g.items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for det := e.evalItem(&e.g.items[it], faults, idx, lanes); det != 0; det &= det - 1 {
				rows[idx[bits.TrailingZeros64(det)]][it/64] |= 1 << uint(it%64)
			}
		}
		resolved += len(idx)
	}
	return rows, nil
}

// identity64 is the identity index slice backing the pregrouped fast path.
var identity64 = func() (id [64]int) {
	for i := range id {
		id[i] = i
	}
	return id
}()

// pregrouped reports whether faults already form a single packed group:
// at most 64 same-kind faults deviating one layer.
func pregrouped(faults []fault.Fault) bool {
	if len(faults) == 0 || len(faults) > 64 {
		return false
	}
	kind, layer := faults[0].Kind, sourceLayer(faults[0])
	for _, f := range faults[1:] {
		if f.Kind != kind || sourceLayer(f) != layer {
			return false
		}
	}
	return true
}

// evalItem evaluates the lanes of one packed group (same kind, same source
// layer, ≤64 lanes) on one item: lane l is faults[idx[l]], and only the
// lanes set in lanes are evaluated. It returns the detected-lane word.
//
// Per lane the semantics are the scalar oracle's exactly: behaviourally
// inert faults and faulty trains equal to the golden train never reach the
// memo; primary-output deviations compare spike counts directly; everything
// else consults the item's shared memo, and the misses share one packed
// downstream pass whose verdicts are memoized.
func (e *Evaluator) evalItem(ic *goldenItem, faults []fault.Fault, idx []int, lanes uint64) (detected uint64) {
	ps := &e.ps
	L := e.g.ts.Arch.Layers()
	var run uint64
	runLayer := 0
	for ; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		layer, index, train, ok := e.faultSite(ic, faults[idx[l]])
		if !ok {
			continue // inert on this item
		}
		good := ic.trace.X[layer][index]
		if train == good {
			continue // no behavioural deviation on this item
		}
		lane := uint64(1) << uint(l)
		if layer == L-1 && layer != 0 {
			if bits.OnesCount64(train) != bits.OnesCount64(good) {
				detected |= lane
			}
			continue
		}
		if det, hit := ic.memo.lookup(memoKey{layer: layer, index: index, train: train}); hit {
			e.pendingMemoHits++
			if det {
				detected |= lane
			}
			continue
		}
		// Two lanes of one group can deviate the same neuron with the same
		// train (e.g. SWF faults on different synapses producing identical
		// deltas). A fault-at-a-time scan would find the second one
		// memoized; count it as a hit so the accounting does not depend on
		// lane packing, and let the duplicate lane ride along in the pass.
		dup := false
		for prior := run; prior != 0; prior &= prior - 1 {
			p := bits.TrailingZeros64(prior)
			if ps.site[p] == index && ps.trains[p] == train {
				dup = true
				break
			}
		}
		if dup {
			e.pendingMemoHits++
		} else {
			e.pendingMemoMisses++
		}
		ps.site[l] = index
		ps.trains[l] = train
		run |= lane
		runLayer = layer
	}
	if run == 0 {
		return detected
	}
	det := e.downstreamPacked(ic, runLayer, run)
	for r := run; r != 0; r &= r - 1 {
		l := bits.TrailingZeros64(r)
		ic.memo.store(memoKey{layer: runLayer, index: ps.site[l], train: ps.trains[l]}, det&(1<<uint(l)) != 0)
	}
	return detected | det
}

// downstreamPacked re-simulates layers runLayer+1..L-1 for every lane in
// run at once: lane l's chip has neuron (runLayer, site[l]) forced to
// trains[l] while every other neuron of that layer replays its golden
// train. Returns the detected-lane word; memo stores are the caller's job.
//
// The pass is deviation-sparse. For each timestep a front of (neuron,
// lane-word) deviations starts at the source layer and is pushed one layer
// at a time: a downstream neuron's weighted input is the golden y plus a
// per-lane correction ±w for each deviating presynaptic neuron. Lanes whose
// potential has diverged ("dirty") integrate every timestep from the SoA
// scratch; all other lanes' spike bits are broadcast from the golden train
// without touching a float. Output-layer deviations maintain per-lane
// spike-count differences against the golden counts, with a per-lane
// monotone overshoot early exit.
func (e *Evaluator) downstreamPacked(ic *goldenItem, runLayer int, run uint64) uint64 {
	ps := &e.ps
	arch := e.g.ts.Arch
	L := arch.Layers()
	T := ic.item.Timesteps
	theta := ic.net.Params.Theta
	leak := ic.net.Params.Leak
	subtract := ic.net.Params.Reset == snn.ResetSubtract
	nOut := arch[L-1]

	for k := runLayer + 1; k < L; k++ {
		d := ps.dirty[k]
		for j := range d {
			d[j] = 0
		}
	}
	diff := ps.diff[:nOut*64]
	for i := range diff {
		diff[i] = 0
	}
	for j := range ps.gsofar {
		ps.gsofar[j] = 0
	}

	goldenCounts := ic.golden.SpikeCounts
	srcX := ic.trace.X[runLayer]
	var detected uint64

	devIdx, nxtIdx := ps.devIdx[:0], ps.nxtIdx[:0]
	devAdd, devSub := ps.devAdd, ps.devSub
	nxtAdd, nxtSub := ps.nxtAdd, ps.nxtSub

	for t := 0; t < T; t++ {
		bit := uint64(1) << uint(t)

		// A detected verdict is final (output counts are monotone), so
		// detected lanes are masked out of the front, the integration and
		// the diff bookkeeping — late timesteps only carry the undecided.
		act := ^detected

		// First-hop deviation set: lanes whose patched train differs from
		// the golden train in this timestep. At the source layer each lane
		// deviates exactly one neuron — its own site — so the hop into
		// layer runLayer+1 fuses the correction ±w[site[lane]][j] straight
		// into the integration loop instead of scattering per-lane
		// corrections through ps.corr.
		var devLanes uint64
		for lanes := run & act; lanes != 0; {
			l := bits.TrailingZeros64(lanes)
			lanes &= lanes - 1
			fset := ps.trains[l]&bit != 0
			if (srcX[ps.site[l]]&bit != 0) == fset {
				continue
			}
			devLanes |= 1 << uint(l)
			if fset {
				ps.sgn[l] = 1
			} else {
				ps.sgn[l] = -1
			}
		}

		{
			k := runLayer + 1
			width := arch[k]
			wmat := ic.net.W[k-1]
			dirty := ps.dirty[k]
			mpk := ps.mp[k]
			gX := ic.trace.X[k]
			gY := ic.trace.Y[k]
			gmp := ic.gmp[k]
			isOut := k == L-1
			nxtIdx = nxtIdx[:0]
			for j := 0; j < width; j++ {
				gset := gX[j]&bit != 0
				if isOut && gset {
					ps.gsofar[j]++
				}
				d := dirty[j]
				// Active working set: dirty or newly deviating lanes not
				// yet detected (devLanes ⊆ act by construction).
				da := (d | devLanes) & act
				if da == 0 {
					continue
				}
				if newDirty := devLanes &^ d; newDirty != 0 {
					// First deviation of these lanes at this neuron: seed
					// their potentials with the golden value entering t.
					var enter float64
					if t > 0 {
						enter = gmp[(t-1)*width+j]
					}
					base := j * 64
					for l := newDirty; l != 0; {
						lane := bits.TrailingZeros64(l)
						l &= l - 1
						mpk[base+lane] = enter
					}
					dirty[j] = d | newDirty
				}
				y := gY[t*width+j]
				var fired uint64
				base := j * 64
				for l := da & devLanes; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					// Same summation grouping as the general hop below:
					// leak·mp + (y + correction).
					m := leak*mpk[base+lane] + (y + ps.sgn[lane]*wmat[ps.site[lane]*width+j])
					if m > theta {
						fired |= 1 << uint(lane)
						if subtract {
							m -= theta
						} else {
							m = 0
						}
					}
					mpk[base+lane] = m
				}
				for l := da &^ devLanes; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					m := leak*mpk[base+lane] + y
					if m > theta {
						fired |= 1 << uint(lane)
						if subtract {
							m -= theta
						} else {
							m = 0
						}
					}
					mpk[base+lane] = m
				}
				// Lane spike word: golden broadcast for clean lanes, the
				// integrated threshold crossings for dirty ones.
				var bcast uint64
				if gset {
					bcast = ^uint64(0)
				}
				dev := da & (fired ^ bcast)
				if dev == 0 {
					continue
				}
				if !isOut {
					nxtAdd[j] = dev & fired
					nxtSub[j] = dev &^ fired
					nxtIdx = append(nxtIdx, j)
					continue
				}
				dbase := j * 64
				gtot := goldenCounts[j]
				gs := ps.gsofar[j]
				for l := dev & fired; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					diff[dbase+lane]++
					// Output spike counts are monotone nondecreasing in t:
					// a lane whose count exceeds the golden total can never
					// fall back, so the lane's verdict is final.
					if gs+int(diff[dbase+lane]) > gtot {
						detected |= 1 << uint(lane)
					}
				}
				for l := dev &^ fired; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					diff[dbase+lane]--
				}
			}
			// The first hop builds its front in the nxt buffers like every
			// other hop; swap so the general layers consume it.
			devIdx, nxtIdx = nxtIdx, devIdx
			devAdd, nxtAdd = nxtAdd, devAdd
			devSub, nxtSub = nxtSub, devSub
		}

		for k := runLayer + 2; k < L; k++ {
			width := arch[k]
			wmat := ic.net.W[k-1]
			dirty := ps.dirty[k]
			mpk := ps.mp[k]
			gX := ic.trace.X[k]
			gY := ic.trace.Y[k]
			gmp := ic.gmp[k]
			isOut := k == L-1
			act = ^detected
			nxtIdx = nxtIdx[:0]
			// The correction union is j-independent: every neuron of this
			// layer sees the same set of corrected lanes, only the weights
			// differ. When fronts are dense (≥16 lanes per entry on average)
			// expand each entry's masks into a ±1 selector once and fold
			// corr[lane] += wij·sel[lane] with the SIMD axpy — one multiply
			// and one add per element, exactly what the scatter computes
			// (x − w ≡ x + (−1)·w in IEEE-754), so the two paths agree bit
			// for bit. Sparse fronts keep the per-lane scatter, which costs
			// O(popcount) instead of O(64·len(front)).
			var frontLanes uint64
			totPop := 0
			for _, i := range devIdx {
				a, s := devAdd[i], devSub[i]
				frontLanes |= a | s
				totPop += bits.OnesCount64(a) + bits.OnesCount64(s)
			}
			var sel []float64
			if len(devIdx) > 0 && totPop >= 16*len(devIdx) {
				sel = ps.selFor(len(devIdx))
				for p, i := range devIdx {
					blk := sel[p*64 : p*64+64 : p*64+64]
					for l := range blk {
						blk[l] = 0
					}
					for l := devAdd[i]; l != 0; {
						lane := bits.TrailingZeros64(l)
						l &= l - 1
						blk[lane] = 1
					}
					for l := devSub[i]; l != 0; {
						lane := bits.TrailingZeros64(l)
						l &= l - 1
						blk[lane] = -1
					}
				}
			}
			for j := 0; j < width; j++ {
				gset := gX[j]&bit != 0
				if isOut && gset {
					ps.gsofar[j]++
				}
				var corrLanes uint64
				if sel != nil {
					corrLanes = frontLanes
					for p, i := range devIdx {
						snn.MulAddInto(ps.corr[:], sel[p*64:p*64+64], wmat[i*width+j])
					}
				} else {
					for _, i := range devIdx {
						wij := wmat[i*width+j]
						if a := devAdd[i]; a != 0 {
							corrLanes |= a
							for l := a; l != 0; {
								lane := bits.TrailingZeros64(l)
								l &= l - 1
								ps.corr[lane] += wij
							}
						}
						if s := devSub[i]; s != 0 {
							corrLanes |= s
							for l := s; l != 0; {
								lane := bits.TrailingZeros64(l)
								l &= l - 1
								ps.corr[lane] -= wij
							}
						}
					}
				}
				d := dirty[j]
				// The active working set: dirty or newly corrected lanes not
				// yet detected. corrLanes ⊆ act (fronts are masked), so
				// da == 0 implies corrLanes == 0 and corr is still all-zero.
				da := (d | corrLanes) & act
				if da == 0 {
					continue
				}
				if newDirty := corrLanes &^ d; newDirty != 0 {
					// First deviation of these lanes at this neuron: seed
					// their potentials with the golden value entering t.
					var enter float64
					if t > 0 {
						enter = gmp[(t-1)*width+j]
					}
					base := j * 64
					for l := newDirty; l != 0; {
						lane := bits.TrailingZeros64(l)
						l &= l - 1
						mpk[base+lane] = enter
					}
					d |= newDirty
					dirty[j] = d
				}
				y := gY[t*width+j]
				var fired uint64
				base := j * 64
				for l := da; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					m := leak*mpk[base+lane] + (y + ps.corr[lane])
					if m > theta {
						fired |= 1 << uint(lane)
						if subtract {
							m -= theta
						} else {
							m = 0
						}
					}
					mpk[base+lane] = m
				}
				for l := corrLanes; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					ps.corr[lane] = 0
				}
				// Lane spike word: golden broadcast for clean lanes, the
				// integrated threshold crossings for dirty ones.
				var bcast uint64
				if gset {
					bcast = ^uint64(0)
				}
				dev := da & (fired ^ bcast)
				if dev == 0 {
					continue
				}
				if !isOut {
					nxtAdd[j] = dev & fired
					nxtSub[j] = dev &^ fired
					nxtIdx = append(nxtIdx, j)
					continue
				}
				dbase := j * 64
				gtot := goldenCounts[j]
				gs := ps.gsofar[j]
				for l := dev & fired; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					diff[dbase+lane]++
					// Output spike counts are monotone nondecreasing in t:
					// a lane whose count exceeds the golden total can never
					// fall back, so the lane's verdict is final.
					if gs+int(diff[dbase+lane]) > gtot {
						detected |= 1 << uint(lane)
					}
				}
				for l := dev &^ fired; l != 0; {
					lane := bits.TrailingZeros64(l)
					l &= l - 1
					diff[dbase+lane]--
				}
			}
			// The consumed front is zeroed before the buffers swap, so
			// every front array is all-zero whenever it is rebuilt.
			for _, i := range devIdx {
				devAdd[i] = 0
				devSub[i] = 0
			}
			devIdx, nxtIdx = nxtIdx, devIdx
			devAdd, nxtAdd = nxtAdd, devAdd
			devSub, nxtSub = nxtSub, devSub
		}
		if detected == run {
			// Every lane's verdict is already known (and monotone): stop.
			break
		}
	}

	// Hand the (possibly regrown) front buffers back to the scratch so the
	// next pass reuses their capacity.
	ps.devIdx, ps.nxtIdx = devIdx[:0], nxtIdx[:0]
	ps.devAdd, ps.devSub = devAdd, devSub
	ps.nxtAdd, ps.nxtSub = nxtAdd, nxtSub

	// Lanes that never overshot: detected iff any output count differs.
	rem := run &^ detected
	for j := 0; j < nOut && rem != 0; j++ {
		dbase := j * 64
		for l := rem; l != 0; {
			lane := bits.TrailingZeros64(l)
			l &= l - 1
			if diff[dbase+lane] != 0 {
				detected |= 1 << uint(lane)
				rem &^= 1 << uint(lane)
			}
		}
	}
	return detected
}
