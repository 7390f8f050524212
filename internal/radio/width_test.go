package radio

import (
	"math"
	"runtime"
	"testing"
)

// TestRouteWidthExact pins the route cache's width rule on path graphs,
// node i linked to i-1 and i+1 only, whose far end is n-1 hops away. At
// 30 000 nodes every distance fits the two-byte tables and a table costs
// two bytes per node; at 40 000 the far distances pass math.MaxInt16,
// which only the four-byte tables hold. Hops and NextHop must equal a
// fresh BFS after the build, after a PatchRoutes window that cuts an edge
// and adds it back, and after FIFO eviction. The paths are packed from
// their rows directly: the test is about route widths, and the all-pairs
// Build would spend seconds finding the same edges.
func TestRouteWidthExact(t *testing.T) {
	for _, n := range []int{30_000, 40_000} {
		cut := n - 10 // the edge (cut, cut+1) goes and comes back
		rows := func(skip bool) func(i int) []int32 {
			buf := make([]int32, 0, 2)
			return func(i int) []int32 {
				buf = buf[:0]
				if i > 0 && !(skip && i == cut+1) {
					buf = append(buf, int32(i-1))
				}
				if i < n-1 && !(skip && i == cut) {
					buf = append(buf, int32(i+1))
				}
				return buf
			}
		}
		b := NewGraphBuilder()
		g, err := b.RebuildFromRows(n, rows(false), nil, 250, 0)
		if err != nil {
			t.Fatal(err)
		}
		dsts := []int{0, n - 1, n / 2, cut, cut + 1}

		// check compares every source's Hops toward dst with a fresh BFS,
		// and NextHop at the path's ends, its middle and around the cut.
		check := func(state string, dst int) {
			t.Helper()
			want := hopsFrom(g, dst)
			for src := range want {
				if got := g.Hops(src, dst); got != want[src] {
					t.Fatalf("n=%d %s: Hops(%d,%d) = %d, fresh BFS %d", n, state, src, dst, got, want[src])
				}
			}
			for _, src := range []int{0, 1, n / 2, cut - 1, cut, cut + 1, cut + 2, n - 2, n - 1} {
				if got, want := g.NextHop(src, dst), nextHopRef(g, src, dst); got != want {
					t.Fatalf("n=%d %s: NextHop(%d,%d) = %d, fresh BFS %d", n, state, src, dst, got, want)
				}
			}
		}

		// A built table's cost: dst 0's read makes the per-node slot index
		// too, so the bytes of the second table alone are measured.
		check("built", 0)
		perNode := tableBytes(func() { g.Hops(1, n-1) }) / float64(n)
		switch {
		case n <= math.MaxInt16 && perNode > 2.5:
			t.Errorf("n=%d: a table costs %.2f B per node, want 2", n, perNode)
		case n > math.MaxInt16 && perNode < 4:
			t.Errorf("n=%d: a table costs %.2f B per node, want 4", n, perNode)
		}
		for _, dst := range dsts {
			check("built", dst)
		}
		if far := g.Hops(0, n-1); far != n-1 {
			t.Fatalf("n=%d: far end %d hops away, want %d", n, far, n-1)
		}

		// The cut: dst 0's table catches up to it; the others lag across
		// the whole window and are read only after the edge is back.
		edge := EdgeDiff{U: int32(cut), V: int32(cut + 1)}
		if _, err := b.RebuildFromRows(n, rows(true), nil, 250, 1); err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes([]EdgeDiff{edge})
		check("cut", 0)
		if g.Hops(0, n-1) != Unreachable {
			t.Fatalf("n=%d: far end reachable across the cut", n)
		}
		edge.Add = true
		if _, err := b.RebuildFromRows(n, rows(false), nil, 250, 2); err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes([]EdgeDiff{edge})
		for _, dst := range dsts {
			check("cut and re-added", dst)
		}
		if repaired, _ := g.RouteRepairs(); repaired == 0 {
			t.Fatalf("n=%d: no table was repaired in place", n)
		}

		// FIFO eviction: after a fresh build (the route cache emptied, as
		// Build does, and the path repacked), a cap of two keeps the
		// newest two destinations read, each new one built in the table
		// the oldest gave up.
		g.resetRoutes()
		if _, err := b.RebuildFromRows(n, rows(false), nil, 250, 3); err != nil {
			t.Fatal(err)
		}
		g.SetRouteTableCap(2)
		for _, dst := range append(dsts, 0) {
			check("evicting", dst)
		}
		if g.RouteTables() != 2 {
			t.Fatalf("n=%d: %d live tables, cap 2", n, g.RouteTables())
		}
	}
}

// tableBytes returns the bytes f allocates.
func tableBytes(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}
