package cfg

import "go/ast"

// PathOpts tunes an all-paths query.
type PathOpts struct {
	// ExemptPanic treats paths ending in PanicExit (panic, os.Exit,
	// log.Fatal, runtime.Goexit) as satisfied: a panicking frame still
	// runs its deferred calls, and a process that exits holds nothing
	// anyone can wait on.
	ExemptPanic bool
	// Exempt prunes paths at nodes for which it returns true: when a
	// block contains an exempt node, every path through that block is
	// considered satisfied from that point on. resource-close uses this
	// for the `if err != nil { return err }` guard paired with an
	// acquisition — on that path the resource was never live.
	Exempt func(ast.Node) bool
}

// pathState is the memoized verdict for "all paths from this block reach
// a satisfying node before the exit".
type pathState struct {
	verdict byte // 0 unknown/in-progress, 1 satisfied, 2 violated
	witness ast.Node
}

// Satisfied reports whether every execution path from start (exclusive —
// nodes after start in its block, then all successors) to the function's
// ordinary exit passes through a node for which sat returns true. When it
// returns false, witness is a node on an offending path — the return
// statement (or last node) of the block that escaped to the exit, or nil
// when the offending path is the bare fall-off-the-end edge.
//
// Cycles are resolved coinductively: a path that loops forever never
// reaches the exit, so it cannot violate an "on all paths to the exit"
// obligation. Querying an Incomplete graph returns true unconditionally —
// the caller is expected to have skipped such functions already, and a
// conservative "satisfied" can at worst mask a finding, never invent one.
func (g *Graph) Satisfied(start ast.Node, sat func(ast.Node) bool, opts PathOpts) (bool, ast.Node) {
	if g.Incomplete {
		return true, nil
	}
	blk := g.byNode[start]
	if blk == nil {
		return true, nil
	}
	q := &pathQuery{g: g, sat: sat, opts: opts, memo: make(map[*Block]*pathState)}
	// Scan the remainder of the start block first.
	for _, n := range blk.Nodes[g.indexOf[start]+1:] {
		if q.hits(n) {
			return true, nil
		}
	}
	for _, s := range blk.Succs {
		if st := q.walk(s); st.verdict == 2 {
			w := st.witness
			if w == nil && len(blk.Nodes) > 0 {
				w = blk.Nodes[len(blk.Nodes)-1]
			}
			return false, w
		}
	}
	return true, nil
}

type pathQuery struct {
	g    *Graph
	sat  func(ast.Node) bool
	opts PathOpts
	memo map[*Block]*pathState
}

// hits reports whether a node satisfies the query, via sat or the exempt
// predicate.
func (q *pathQuery) hits(n ast.Node) bool {
	if q.sat(n) {
		return true
	}
	return q.opts.Exempt != nil && q.opts.Exempt(n)
}

// walk computes the all-paths verdict for a whole block. In-progress
// blocks (back edges) count as satisfied: an execution that loops forever
// never reaches the exit.
func (q *pathQuery) walk(b *Block) *pathState {
	if st, ok := q.memo[b]; ok {
		return st
	}
	st := &pathState{}
	q.memo[b] = st // verdict 0: in-progress, treated satisfied on cycles
	if b == q.g.Exit {
		st.verdict = 2
		return st
	}
	if b == q.g.PanicExit {
		if q.opts.ExemptPanic {
			st.verdict = 1
		} else {
			st.verdict = 2
		}
		return st
	}
	for _, n := range b.Nodes {
		if q.hits(n) {
			st.verdict = 1
			return st
		}
	}
	for _, s := range b.Succs {
		sub := q.walk(s)
		if sub.verdict == 2 {
			st.verdict = 2
			st.witness = sub.witness
			if st.witness == nil && len(b.Nodes) > 0 {
				st.witness = b.Nodes[len(b.Nodes)-1]
			}
			return st
		}
	}
	st.verdict = 1
	return st
}
