package radio

import "github.com/manetlab/rpcc/internal/geo"

// GraphBuilder rebuilds connectivity snapshots without reallocating: the
// CSR arrays, the down mask and the route-cache distance tables all
// persist across calls. The network layer holds one builder and repacks
// it from the kinetic plane's rows every sample (RebuildFromRows), the
// one CSR pack there is; Build is the all-pairs reference over it.
//
// Both return the same *Graph on every call; the previous snapshot is
// overwritten in place. Callers must therefore treat a returned graph as
// valid only until the next call — which the simulator guarantees by
// construction, since every event handler re-fetches the current snapshot
// and never retains one across events.
type GraphBuilder struct {
	g Graph

	// rows is Build's scratch: each node's neighbour row of the
	// all-pairs sweep, kept across calls with its capacity.
	rows [][]int32
}

// NewGraphBuilder returns an empty builder; buffers grow on first use.
func NewGraphBuilder() *GraphBuilder { return &GraphBuilder{} }

// Build constructs the snapshot for the given positions from scratch, by
// the unit-disk definition itself: the all-pairs sweep over i < j appends
// j to row i and i to row j, so every row comes out ascending, and
// RebuildFromRows packs the rows with the route cache emptied. down may
// be nil (all up) or a slice of the same length flagging unreachable
// nodes. No simulation calls it; it is the reference the kinetic plane's
// incremental rows are held to.
func (b *GraphBuilder) Build(pos []geo.Point, down []bool, commRange float64, stamp uint64) (*Graph, error) {
	n := len(pos)
	if n > len(b.rows) {
		b.rows = append(b.rows, make([][]int32, n-len(b.rows))...)
	}
	rows := b.rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	r2 := commRange * commRange
	for i := range n {
		for j := i + 1; j < n; j++ {
			if pos[i].DistSq(pos[j]) <= r2 {
				rows[i] = append(rows[i], int32(j))
				rows[j] = append(rows[j], int32(i))
			}
		}
	}
	if b.g.n == n {
		b.g.resetRoutes()
	}
	return b.RebuildFromRows(n, func(i int) []int32 { return rows[i] }, down, commRange, stamp)
}

// resizeI32 returns s with length n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
