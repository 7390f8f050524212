package radio

import (
	"math"
	"slices"

	"github.com/manetlab/rpcc/internal/geo"
)

// GraphBuilder rebuilds connectivity snapshots without reallocating: the
// CSR arrays, the down mask, the spatial-grid buckets and the route-cache
// distance tables all persist across calls. The network layer holds one
// builder and repacks it from the kinetic plane's rows every sample
// (RebuildFromRows); Build is the from-scratch build of a position set.
//
// Both return the same *Graph on every call; the previous snapshot is
// overwritten in place. Callers must therefore treat a returned graph as
// valid only until the next call — which the simulator guarantees by
// construction, since every event handler re-fetches the current snapshot
// and never retains one across events.
type GraphBuilder struct {
	g Graph

	// Spatial grid scratch: terrain cells of side = comm range, a CSR of
	// node ids per cell (cellOff/cellNodes) and each node's cell index.
	cellOf    []int32
	cellOff   []int32
	cellNodes []int32
	fill      []int32 // write cursors (per cell or per node)
}

// NewGraphBuilder returns an empty builder; buffers grow on first Build.
func NewGraphBuilder() *GraphBuilder { return &GraphBuilder{} }

// smallBuildCutoff is the node count at and below which Build uses the
// pairwise sweep instead of the spatial grid (identical output, lower
// constant factors at small n).
const smallBuildCutoff = 100

// Build constructs the snapshot for the given positions. down may be nil
// (all up) or a slice of the same length flagging unreachable nodes.
//
// Neighbour discovery uses a uniform grid with cell side equal to the
// communication range: a node's neighbours can only lie in its own or the
// eight surrounding cells, so the scan is O(n·k) for k candidates per
// neighbourhood instead of the O(n²) all-pairs sweep. Rows are sorted
// ascending, which yields byte-identical adjacency — and therefore
// identical routing and simulation output — to the O(n²) all-pairs sweep.
func (b *GraphBuilder) Build(pos []geo.Point, down []bool, commRange float64, stamp uint64) (*Graph, error) {
	if err := validate(pos, down, commRange); err != nil {
		return nil, err
	}
	g := b.prepare(pos, down, stamp)
	n := g.n
	if n == 0 {
		return g, nil
	}
	// At small n the O(n²) sweep beats the grid: bucketing, the 3×3 block
	// walk and the per-row sorts cost more than ~n²/2 distance checks. The
	// crossover sits near 100 nodes on current hardware; both paths emit
	// the identical snapshot (property-tested), so this is purely a lever
	// on constant factors — it is what un-regressed BenchmarkFloodStorm.
	if n <= smallBuildCutoff {
		b.fillPairwise(pos, commRange)
		return g, nil
	}

	// Bounding box of the actual positions keeps the grid tight even when
	// nodes cluster in a corner of a large terrain.
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	for _, p := range pos[1:] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	cols := int((maxX-minX)/commRange) + 1
	rows := int((maxY-minY)/commRange) + 1
	// Degenerate spreads (a few nodes flung across kilometres) would blow
	// the grid up to more cells than pairs; fall back to the O(n²) scan,
	// which produces the identical snapshot.
	if float64(cols)*float64(rows) > math.Max(1024, 16*float64(n)) {
		b.fillPairwise(pos, commRange)
		return g, nil
	}

	// Bucket up-nodes by cell with a counting sort: ascending node order
	// within each cell falls out of the two ascending passes.
	nCells := cols * rows
	b.cellOf = resizeI32(b.cellOf, n)
	b.cellOff = resizeI32(b.cellOff, nCells+1)
	b.cellNodes = b.cellNodes[:0]
	for i := range b.cellOff[:nCells+1] {
		b.cellOff[i] = 0
	}
	for i := 0; i < n; i++ {
		if g.down[i] {
			b.cellOf[i] = -1
			continue
		}
		cx := int((pos[i].X - minX) / commRange)
		cy := int((pos[i].Y - minY) / commRange)
		c := int32(cy*cols + cx)
		b.cellOf[i] = c
		b.cellOff[c+1]++
	}
	for c := 0; c < nCells; c++ {
		b.cellOff[c+1] += b.cellOff[c]
	}
	b.cellNodes = resizeI32(b.cellNodes, int(b.cellOff[nCells]))
	b.fill = resizeI32(b.fill, nCells)
	fill := b.fill
	copy(fill, b.cellOff[:nCells])
	for i := 0; i < n; i++ {
		if c := b.cellOf[i]; c >= 0 {
			b.cellNodes[fill[c]] = int32(i)
			fill[c]++
		}
	}

	// Per-node neighbour scan over the 3×3 cell block.
	r2 := commRange * commRange
	tgt := g.tgt[:0]
	for i := 0; i < n; i++ {
		g.off[i] = int32(len(tgt))
		c := b.cellOf[i]
		if c < 0 {
			continue
		}
		cx, cy := int(c)%cols, int(c)/cols
		rowStart := len(tgt)
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= rows {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= cols {
					continue
				}
				cell := y*cols + x
				for _, j32 := range b.cellNodes[b.cellOff[cell]:b.cellOff[cell+1]] {
					if j := int(j32); j != i && pos[i].DistSq(pos[j]) <= r2 {
						tgt = append(tgt, j32)
					}
				}
			}
		}
		// Cells are visited in block order, not id order; restore the
		// ascending row the pairwise build produces.
		slices.Sort(tgt[rowStart:])
	}
	g.off[n] = int32(len(tgt))
	g.tgt = tgt
	return g, nil
}

// prepare resets the reused graph for a new snapshot: sizes the CSR and
// down mask, recycles the route-cache tables, and stores the metadata.
func (b *GraphBuilder) prepare(pos []geo.Point, down []bool, stamp uint64) *Graph {
	g := &b.g
	n := len(pos)
	if g.n == n {
		g.resetRoutes()
	}
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
		for i := range g.down {
			g.down[i] = false
		}
	}
	if cap(g.queue) < n {
		g.queue = make([]int32, 0, n)
	}
	return g
}

// fillPairwise writes the CSR rows with the all-pairs sweep: a counting
// pass sizes each row, a fill pass writes neighbours in ascending order.
func (b *GraphBuilder) fillPairwise(pos []geo.Point, commRange float64) {
	g := &b.g
	n := g.n
	r2 := commRange * commRange
	for i := range g.off[:n+1] {
		g.off[i] = 0
	}
	for i := 0; i < n; i++ {
		if g.down[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if g.down[j] {
				continue
			}
			if pos[i].DistSq(pos[j]) <= r2 {
				g.off[i+1]++
				g.off[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	total := int(g.off[n])
	if cap(g.tgt) < total {
		g.tgt = make([]int32, total)
	}
	g.tgt = g.tgt[:total]
	b.fill = resizeI32(b.fill, n)
	fill := b.fill
	copy(fill, g.off[:n])
	for i := 0; i < n; i++ {
		if g.down[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if g.down[j] {
				continue
			}
			if pos[i].DistSq(pos[j]) <= r2 {
				g.tgt[fill[i]] = int32(j)
				fill[i]++
				g.tgt[fill[j]] = int32(i)
				fill[j]++
			}
		}
	}
}

// resizeI32 returns s with length n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
