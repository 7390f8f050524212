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
	"slices"

	"github.com/manetlab/rpcc/internal/geo"
)

// Graph is an undirected connectivity snapshot over n nodes. Nodes marked
// down (disconnected by churn or depleted battery) have no edges.
type Graph struct {
	n     int
	off   []int32 // CSR row offsets, len n+1
	tgt   []int   // CSR neighbour ids, ascending per row
	down  []bool
	stamp uint64 // snapshot generation, for cache invalidation upstream

	// Route cache: dist[dst] holds, once built, the BFS hop distance from
	// every node to dst (Unreachable = -1). Slices are recycled through
	// distPool across snapshot rebuilds by the owning GraphBuilder.
	dist     [][]int32
	built    []int32   // destinations with a table built this snapshot
	distPool [][]int32 // spare distance tables
	queue    []int32   // shared BFS scratch queue
	tableCap int       // max live tables (0 = unlimited), FIFO eviction

	// On-demand route repair (see patch.go). diffLog holds the CSR edge
	// changes of the most recent kinetic samples and logEnd counts every
	// diff ever logged, so diffLog covers positions [logEnd-len(diffLog),
	// logEnd). synced[dst] is the position dst's table is current to; a
	// table is caught up when it is next read. repaired and dropped count
	// those catch-ups by outcome.
	diffLog  []EdgeDiff
	logEnd   int
	synced   []int
	repaired uint64
	dropped  uint64

	// repairBuckets (the level-ordered relaxation queue) and repairInvalid
	// (the vertices phase 1 invalidated) are repairTable's scratch.
	repairBuckets [][]int32
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
func (g *Graph) Neighbors(i int) []int {
	if i < 0 || i >= g.n {
		return nil
	}
	return g.tgt[g.off[i]:g.off[i+1]]
}

// Connected reports whether i and j share an edge. Neighbour rows are
// sorted, so this is a binary search rather than a linear scan.
func (g *Graph) Connected(i, j int) bool {
	if i < 0 || i >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.tgt[g.off[i]:g.off[i+1]], j)
	return found
}

// Unreachable is the hop distance reported for unreachable pairs.
const Unreachable = -1

// routeTo returns the memoized hop-distance table toward dst, building it
// with one BFS on first use and bringing it up to date with the edge
// changes logged since it was last read (catchUp, patch.go).
func (g *Graph) routeTo(dst int) []int32 {
	if g.dist == nil {
		g.dist = make([][]int32, g.n)
		g.synced = make([]int, g.n)
	}
	if d := g.dist[dst]; d != nil {
		if g.synced[dst] != g.logEnd {
			g.catchUp(dst, d)
		}
		return d
	}
	if g.tableCap > 0 && len(g.built) >= g.tableCap {
		// FIFO eviction keeps the live-table population bounded and the
		// eviction order deterministic. Copying the queue down, rather
		// than reslicing its front away, keeps one backing array.
		old := g.built[0]
		g.built = g.built[:copy(g.built, g.built[1:])]
		g.distPool = append(g.distPool, g.dist[old])
		g.dist[old] = nil
	}
	var d []int32
	if n := len(g.distPool); n > 0 {
		d = g.distPool[n-1]
		g.distPool = g.distPool[:n-1]
		d = d[:g.n]
	} else {
		d = make([]int32, g.n)
	}
	g.bfsTable(d, dst)
	g.dist[dst] = d
	g.synced[dst] = g.logEnd
	g.built = append(g.built, int32(dst))
	return d
}

// bfsTable overwrites d with the hop distance from every node to dst on
// the current adjacency, reusing the shared scratch queue.
func (g *Graph) bfsTable(d []int32, dst int) {
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
				q = append(q, int32(v))
			}
		}
	}
	g.queue = q
}

// resetRoutes returns every distance table built for this snapshot to the
// pool and forgets the repair log; the builder calls it before reusing the
// graph for a new topology.
func (g *Graph) resetRoutes() {
	for _, dst := range g.built {
		g.distPool = append(g.distPool, g.dist[dst])
		g.dist[dst] = nil
	}
	g.built = g.built[:0]
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
	return int(g.routeTo(dst)[src])
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
	dist := g.routeTo(dst)
	best, bestDist := Unreachable, int32(^uint32(0)>>1)
	for _, v := range g.Neighbors(src) {
		if d := dist[v]; d != Unreachable && d < bestDist {
			best, bestDist = v, d
		}
	}
	return best
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
