package radio

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the incremental half of the radio layer: the kinetic
// topology plane (internal/netsim) maintains geometric adjacency rows
// between snapshots and asks the builder to repack the CSR from them
// without discarding the route cache, then logs the sample's CSR edge
// changes. A memoized distance table is repaired against the changes
// logged since it was last read — when it is next read, not at every
// sample — instead of being rebuilt from scratch. Maintaining only the
// routes in use is the on-demand principle of DSR itself.
//
// The repair is the textbook two-phase dynamic-BFS update for unit
// weights:
//
//   Phase 1 (increase): starting from the endpoints of removed edges,
//   a vertex keeps its distance only while it has a witness neighbour
//   one level closer to the destination; vertices without one are set
//   to Unreachable and their dependants re-checked, to a fixpoint.
//   Witness chains are grounded at the destination by induction on
//   level, so every distance that survives phase 1 is achievable in
//   the new graph.
//
//   Phase 2 (decrease): a multi-source level-ordered BFS relaxation
//   seeded by the endpoints of added edges and by the surviving
//   frontier around the invalidated region restores exact distances.
//
// Final distances equal a fresh BFS on the new graph, so NextHop —
// which reads only distances plus the current adjacency — answers
// exactly as if the table had been rebuilt. The property tests in
// patch_test.go pin that equality on random mobile histories.
//
// Both phases walk the *current* adjacency and use the diffs only as
// seeds, so they need a superset of the endpoints of the edges that
// differ between the table's graph and the current one, not the exact
// net change. A removed-edge seed whose vertex still has a witness is
// left alone; an added-edge seed relaxes only across edges that exist
// now. The concatenation of several samples' diffs is such a superset
// — an edge added and removed inside the window contributes one seed of
// each kind and changes nothing — which is what makes a lagging table
// repairable in one pass over its pending window.

// EdgeDiff is one undirected CSR edge change between two snapshots.
type EdgeDiff struct {
	U, V int32
	Add  bool
}

// RebuildFromRows packs the snapshot's CSR from per-node geometric
// neighbour rows (sorted ascending, including rows for down nodes),
// filtering out edges with a down endpoint. It keeps the memoized route
// tables alive, so the caller can log the edge changes with PatchRoutes
// and have them repaired on demand; Build empties them first. The first
// call (or a call with a different node count) starts with an empty
// cache.
func (b *GraphBuilder) RebuildFromRows(n int, row func(i int) []int32, down []bool, commRange float64, stamp uint64) (*Graph, error) {
	if commRange <= 0 {
		return nil, fmt.Errorf("radio: non-positive range %g", commRange)
	}
	if down != nil && len(down) != n {
		return nil, fmt.Errorf("radio: down length %d != nodes %d", len(down), n)
	}
	g := &b.g
	g.resize(n)
	g.stamp = stamp
	g.off = resizeI32(g.off, n+1)
	if cap(g.down) < n {
		g.down = make([]bool, n)
	}
	g.down = g.down[:n]
	if down != nil {
		copy(g.down, down)
	} else {
		clear(g.down)
	}
	if cap(g.queue) < n {
		g.queue = make([]int32, 0, n)
	}
	// The rows' total length bounds the surviving edges, so tgt grows
	// at most once per pack.
	total := 0
	for i := 0; i < n; i++ {
		total += len(row(i))
	}
	tgt := slices.Grow(g.tgt[:0], total)
	for i := 0; i < n; i++ {
		g.off[i] = int32(len(tgt))
		if g.down[i] {
			continue
		}
		for _, j := range row(i) {
			if !g.down[j] {
				tgt = append(tgt, j)
			}
		}
	}
	g.off[n] = int32(len(tgt))
	g.tgt = tgt
	return g, nil
}

// resize sets the node count. Distance tables are length-bound to it, so
// a new count discards the route cache outright — tables, spares and
// repair log — and starts one at the width the new count needs.
func (g *Graph) resize(n int) {
	if g.n != n {
		g.n = n
		g.routes = newRoutes(n)
		g.diffLog = g.diffLog[:0]
	}
}

// repairLimit is the size past which repairing a table costs more than a
// fresh BFS, about a quarter of the graph. It caps how much of a table
// phase 1 may invalidate, how long a pending diff window catchUp will
// repair against, and therefore how much of the log is worth keeping.
func (g *Graph) repairLimit() int { return g.n/4 + 8 }

// PatchRoutes logs the CSR edge changes applied by the latest
// RebuildFromRows; it must be called after every repack that changed an
// edge. No table is touched here: routeTo repairs a table against its
// pending window of the log when the table is next read. The log keeps
// at least the newest repairLimit() diffs — a table that lags further is
// rebuilt, not repaired — and at most twice that, so trimming is
// amortised O(1) per diff.
func (g *Graph) PatchRoutes(diffs []EdgeDiff) {
	g.diffLog = append(g.diffLog, diffs...)
	g.logEnd += len(diffs)
	if limit := g.repairLimit(); len(g.diffLog) > 2*limit {
		n := copy(g.diffLog, g.diffLog[len(g.diffLog)-limit:])
		g.diffLog = g.diffLog[:n]
	}
}

// catchUp brings dst's table t up to date with the current adjacency: one
// repairTable pass over the diffs logged since the table was last current
// or, when that window is longer than repairLimit() or invalidates too
// much of the table, a BFS over it in place. A window within the limit is
// always still in the log: trimming keeps the newest repairLimit() diffs,
// and whatever clears the log drops every table with it.
func catchUp[D dist](g *Graph, t *table[D], dst int) {
	pending := g.logEnd - t.synced
	if pending <= g.repairLimit() && repairTable(g, t.d, g.diffLog[len(g.diffLog)-pending:]) {
		g.repaired++
	} else {
		bfsTable(g, t.d, dst)
		g.dropped++
	}
	t.synced = g.logEnd
}

// RouteRepairs returns how many stale tables were repaired in place when
// next read, and how many were abandoned — lagging past the log or
// damaged past the repair limit — and recomputed by BFS instead.
func (g *Graph) RouteRepairs() (repaired, dropped uint64) { return g.repaired, g.dropped }

// repairTable applies the two-phase update to one distance table. diffs
// may be any superset of the changes since the table was current (see the
// file comment). Returns false when the affected region exceeded the
// repair limit (the table's contents are then unspecified). Steady state
// allocates nothing: the work stack, the invalidated list and the
// relaxation queue are all retained on the graph.
func repairTable[D dist](g *Graph, d []D, diffs []EdgeDiff) bool {
	limit := g.repairLimit()
	invalidated := 0

	// Phase 1: over-invalidate. Work stack seeded by removed-edge
	// endpoints; a vertex is re-pushed whenever a potential witness of
	// its level is invalidated, so the loop reaches a fixpoint.
	stack := g.queue[:0]
	for _, diff := range diffs {
		if !diff.Add {
			stack = append(stack, diff.U, diff.V)
		}
	}
	invalid := g.repairInvalid[:0]
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dx := d[x]
		if dx <= 0 {
			continue // destination (0) or already invalidated (-1)
		}
		witness := false
		for _, w := range g.tgt[g.off[x]:g.off[x+1]] {
			if d[w] == dx-1 {
				witness = true
				break
			}
		}
		if witness {
			continue
		}
		d[x] = Unreachable
		invalid = append(invalid, x)
		if invalidated++; invalidated > limit {
			g.queue, g.repairInvalid = stack[:0], invalid[:0]
			return false
		}
		for _, y := range g.tgt[g.off[x]:g.off[x+1]] {
			if d[y] == dx+1 {
				stack = append(stack, y)
			}
		}
	}
	g.queue, g.repairInvalid = stack[:0], invalid[:0]

	// Phase 2: level-ordered relaxation from added-edge endpoints and
	// from the surviving frontier around the invalidated region. The
	// seeds go to the front of one queue, sorted by level; a relaxed
	// vertex is appended behind them one level above the vertex that
	// relaxed it, so the entries behind the seeds are in level order too,
	// and taking the lower head of the two runs visits every entry in
	// level order.
	q := g.repairQueue[:0]
	seed := func(x int32) {
		if dx := d[x]; dx >= 0 {
			q = append(q, levelEntry{x, int32(dx)})
		}
	}
	for _, diff := range diffs {
		if diff.Add {
			seed(diff.U)
			seed(diff.V)
		}
	}
	for _, x := range invalid {
		for _, w := range g.tgt[g.off[x]:g.off[x+1]] {
			seed(w)
		}
	}
	slices.SortFunc(q, func(a, b levelEntry) int { return cmp.Compare(a.level, b.level) })
	seeds := len(q)
	for s, r := 0, seeds; s < seeds || r < len(q); {
		var e levelEntry
		if r == len(q) || (s < seeds && q[s].level <= q[r].level) {
			e, s = q[s], s+1
		} else {
			e, r = q[r], r+1
		}
		if d[e.x] != D(e.level) {
			continue // stale entry: x was relaxed to a lower level
		}
		// level+1 is the length of a simple path, so below n: it fits
		// the table's width (see routeCache).
		next := D(e.level) + 1
		for _, y := range g.tgt[g.off[e.x]:g.off[e.x+1]] {
			if dy := d[y]; dy < 0 || dy > next {
				d[y] = next
				q = append(q, levelEntry{y, int32(next)})
			}
		}
	}
	g.repairQueue = q[:0]
	return true
}

// levelEntry is a vertex queued for relaxation at the level it was
// queued at.
type levelEntry struct{ x, level int32 }

// SetRouteTableCap bounds how many destination tables the route cache
// keeps alive at once (0, the default, is unlimited — the behaviour every
// pre-existing path sees). When the cap is reached the oldest table is
// evicted FIFO, which keeps eviction deterministic. Large kinetic runs
// set a cap so persistent tables cannot grow to n² memory.
func (g *Graph) SetRouteTableCap(cap int) { g.tableCap = cap }

// RouteTables returns how many memoized distance tables are currently
// built — the population kept repairable on demand.
func (g *Graph) RouteTables() int {
	if g.routes == nil {
		return 0
	}
	return g.routes.tables()
}
