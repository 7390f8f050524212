// Package radio models wireless connectivity as a unit-disk graph: two
// hosts can exchange frames iff their Euclidean distance is at most the
// communication range (250 m in the paper's Table 1). The package produces
// adjacency snapshots from node positions and answers the connectivity
// queries the network layer needs: neighbour sets, BFS hop distances, and
// next-hop selection for hop-by-hop unicast routing.
//
// The snapshot is stored in a flat CSR (compressed sparse row) layout and
// carries a route cache: the first NextHop query toward a destination
// runs one BFS from that destination and memoizes the hop distances;
// every later hop of every message to the same destination is an
// O(degree) scan over the source's neighbour list. A table outlives a
// repack from rows and is repaired against the logged edge changes when
// next read (patch.go), so it never serves distances from a stale
// topology. Graphs are not safe for concurrent use; like the rest of the
// simulator they live on a single kernel goroutine.
package radio

import (
	"fmt"
	"math"
	"slices"

	"github.com/manetlab/rpcc/internal/geo"
)

// Graph is an undirected connectivity snapshot over n nodes. Nodes marked
// down (disconnected by churn or depleted battery) have no edges.
type Graph struct {
	n     int
	off   []int32 // CSR row offsets, len n+1
	tgt   []int32 // CSR neighbour ids, ascending per row
	down  []bool
	stamp uint64 // snapshot generation, for cache invalidation upstream

	// Route cache: the memoized hop-distance tables, at the element
	// width resize chose from n (see routeCache). The tables are
	// recycled across snapshot rebuilds by the owning GraphBuilder.
	routes   routeCache
	queue    []int32 // shared BFS scratch queue
	tableCap int     // max live tables (0 = unlimited), FIFO eviction

	// On-demand route repair (see patch.go). diffLog holds the CSR edge
	// changes of the most recent kinetic samples and logEnd counts every
	// diff ever logged, so diffLog covers positions [logEnd-len(diffLog),
	// logEnd). Each table records the position it is current to and is
	// caught up when next read. repaired and dropped count those
	// catch-ups by outcome.
	diffLog  []EdgeDiff
	logEnd   int
	repaired uint64
	dropped  uint64

	// repairQueue (the level-ordered relaxation queue) and repairInvalid
	// (the vertices phase 1 invalidated) are repairTable's scratch.
	repairQueue   []levelEntry
	repairInvalid []int32
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// Stamp returns the snapshot generation counter supplied at build time.
func (g *Graph) Stamp() uint64 { return g.stamp }

// Up reports whether node i was up when the snapshot was taken.
func (g *Graph) Up(i int) bool { return i >= 0 && i < g.n && !g.down[i] }

// Neighbors returns the nodes within range of i, ascending. The returned
// slice aliases the snapshot's CSR arrays; callers must not mutate it.
func (g *Graph) Neighbors(i int) []int32 {
	if i < 0 || i >= g.n {
		return nil
	}
	return g.tgt[g.off[i]:g.off[i+1]]
}

// Connected reports whether i and j share an edge. Neighbour rows are
// sorted, so this is a binary search rather than a linear scan.
func (g *Graph) Connected(i, j int) bool {
	if i < 0 || i >= g.n || j < 0 || j >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.tgt[g.off[i]:g.off[i+1]], int32(j))
	return found
}

// Unreachable is the hop distance reported for unreachable pairs.
const Unreachable = -1

// routeCache is the memoized hop-distance tables at one element width:
// routes[int16] while every distance fits in two bytes, routes[int32]
// otherwise. A BFS distance is at most n-1, so the two-byte tables are
// exact for every graph of at most math.MaxInt16 nodes; above that only
// the four-byte width is. resize fixes the width once from n, and both
// widths run the one generic routeTo/bfsTable/catchUp/repairTable.
type routeCache interface {
	hops(g *Graph, src, dst int) int
	nextHop(g *Graph, src, dst int) int
	// reset returns every live table to the spares (same n, new topology).
	reset()
	// tables is the number of live tables.
	tables() int
}

// dist is a route table's element: hops to the table's destination, or
// Unreachable.
type dist interface{ int16 | int32 }

// routes is the route cache at distance width D. slot[v] is 1 + the index
// in tabs of v's table (0 = none): four bytes per node, whatever the
// width, and the tables themselves exist only for destinations in use.
// Their distances are carved from chunks the cache owns: each chunk holds
// as many tables as all before it, clipped so the chunks never hold room
// for more tables than the cache may keep, so a full cache holds exactly
// its tables' bytes, in about log2(cap) allocations.
type routes[D dist] struct {
	slot  []int32
	tabs  []table[D] // every table ever made: live or spare
	spare []int32    // indices into tabs of the spare tables
	built []int32    // destinations with a live table, oldest first
	chunk []D        // the newest chunk's room for tables not yet made
}

// table is one destination's distances and the log position (logEnd) it
// is current to.
type table[D dist] struct {
	d      []D
	synced int
}

// newRoutes returns an empty route cache for n nodes at the narrowest
// exact width.
func newRoutes(n int) routeCache {
	if n <= math.MaxInt16 {
		return &routes[int16]{}
	}
	return &routes[int32]{}
}

// routeTo returns the memoized hop-distance table toward dst, building it
// with one BFS on first use and bringing it up to date with the edge
// changes logged since it was last read (catchUp, patch.go).
func (r *routes[D]) routeTo(g *Graph, dst int) []D {
	if r.slot == nil {
		r.slot = make([]int32, g.n)
	}
	if s := r.slot[dst]; s != 0 {
		t := &r.tabs[s-1]
		if t.synced != g.logEnd {
			catchUp(g, t, dst)
		}
		return t.d
	}
	if g.tableCap > 0 && len(r.built) >= g.tableCap {
		// FIFO eviction keeps the live-table population bounded and the
		// eviction order deterministic. Copying the queue down, rather
		// than reslicing its front away, keeps one backing array.
		old := r.built[0]
		r.built = r.built[:copy(r.built, r.built[1:])]
		r.spare = append(r.spare, r.slot[old]-1)
		r.slot[old] = 0
	}
	var i int32
	if n := len(r.spare); n > 0 {
		i = r.spare[n-1]
		r.spare = r.spare[:n-1]
	} else {
		i = int32(len(r.tabs))
		r.tabs = append(r.tabs, table[D]{d: r.carve(g)})
	}
	t := &r.tabs[i]
	bfsTable(g, t.d, dst)
	t.synced = g.logEnd
	r.slot[dst] = i + 1
	r.built = append(r.built, int32(dst))
	return t.d
}

// carve returns room for one more table. A cache keeps at most tableCap
// tables, or one per node without a cap.
func (r *routes[D]) carve(g *Graph) []D {
	if len(r.chunk) == 0 {
		limit := g.n
		if g.tableCap > 0 {
			limit = min(limit, g.tableCap)
		}
		made := len(r.tabs)
		r.chunk = make([]D, max(min(made, limit-made), 1)*g.n)
	}
	d := r.chunk[:g.n:g.n]
	r.chunk = r.chunk[g.n:]
	return d
}

// bfsTable overwrites d with the hop distance from every node to dst on
// the current adjacency, reusing the shared scratch queue.
func bfsTable[D dist](g *Graph, d []D, dst int) {
	for i := range d {
		d[i] = Unreachable
	}
	d[dst] = 0
	q := g.queue[:0]
	q = append(q, int32(dst))
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := d[u]
		for _, v := range g.tgt[g.off[u]:g.off[u+1]] {
			if d[v] == Unreachable {
				d[v] = du + 1
				q = append(q, v)
			}
		}
	}
	g.queue = q
}

func (r *routes[D]) reset() {
	for _, dst := range r.built {
		r.spare = append(r.spare, r.slot[dst]-1)
		r.slot[dst] = 0
	}
	r.built = r.built[:0]
}

func (r *routes[D]) tables() int { return len(r.built) }

func (r *routes[D]) hops(g *Graph, src, dst int) int { return int(r.routeTo(g, dst)[src]) }

func (r *routes[D]) nextHop(g *Graph, src, dst int) int {
	dist := r.routeTo(g, dst)
	best, bestDist := Unreachable, D(Unreachable)
	for _, v := range g.tgt[g.off[src]:g.off[src+1]] {
		if d := dist[v]; d != Unreachable && (bestDist == Unreachable || d < bestDist) {
			best, bestDist = int(v), d
		}
	}
	return best
}

// resetRoutes returns every distance table built for this snapshot to the
// spares and forgets the repair log; the builder calls it before reusing
// the graph for a new topology.
func (g *Graph) resetRoutes() {
	if g.routes != nil {
		g.routes.reset()
	}
	g.diffLog = g.diffLog[:0]
}

// Hops returns the BFS hop distance from src to dst, or Unreachable. The
// answer comes from (and warms) dst's memoized table.
func (g *Graph) Hops(src, dst int) int {
	if src == dst {
		if g.Up(src) {
			return 0
		}
		return Unreachable
	}
	if !g.Up(src) || !g.Up(dst) {
		return Unreachable
	}
	return g.routes.hops(g, src, dst)
}

// NextHop returns the neighbour of src that lies on a shortest path to
// dst, or Unreachable when dst cannot be reached. Ties break toward the
// lowest node id so routing is deterministic. This is the hop-by-hop
// forwarding primitive: each relay re-invokes it on the current snapshot,
// which lets in-flight messages adapt to topology changes the way a
// reactive MANET routing protocol would after a route repair.
//
// The BFS tree for dst is computed once and kept repaired across samples
// (patch.go), so every call is an O(degree(src)) scan over distances
// equal to a fresh BFS.
func (g *Graph) NextHop(src, dst int) int {
	if src == dst || !g.Up(src) || !g.Up(dst) {
		return Unreachable
	}
	return g.routes.nextHop(g, src, dst)
}

// validate checks the inputs shared by every build path.
func validate(pos []geo.Point, down []bool, commRange float64) error {
	if commRange <= 0 {
		return fmt.Errorf("radio: non-positive range %g", commRange)
	}
	if down != nil && len(down) != len(pos) {
		return fmt.Errorf("radio: down length %d != positions %d", len(down), len(pos))
	}
	return nil
}
