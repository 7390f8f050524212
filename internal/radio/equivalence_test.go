package radio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/manetlab/rpcc/internal/geo"
)

// randomScenario draws a random node layout with some nodes down.
func randomScenario(r *rand.Rand, terrain geo.Terrain) ([]geo.Point, []bool) {
	n := 10 + r.Intn(60)
	pts := make([]geo.Point, n)
	down := make([]bool, n)
	for i := range pts {
		pts[i] = terrain.RandomPoint(r)
		down[i] = r.Intn(8) == 0
	}
	return pts, down
}

// sameGraph asserts two snapshots expose identical adjacency.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d != %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree %d != %d", i, len(na), len(nb))
		}
		for j := range na {
			if na[j] != nb[j] {
				t.Fatalf("node %d: neighbours %v != %v", i, na, nb)
			}
		}
	}
}

// TestGridFallbackOnSparseSpread: two pairs flung kilometres apart
// connect within each pair and not across.
func TestGridFallbackOnSparseSpread(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 1e6, Y: 1e6}, {X: 1e6 + 150, Y: 1e6}}
	g, err := newGraph(pts, nil, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected(0, 1) || !g.Connected(2, 3) || g.Connected(1, 2) {
		t.Fatal("sparse-spread adjacency wrong")
	}
}

// TestBuilderReuseAcrossRebuilds: one builder rebuilt over changing
// topologies must match a fresh build every time, and must reset the
// route cache so no stale distance leaks across snapshots.
func TestBuilderReuseAcrossRebuilds(t *testing.T) {
	terrain, _ := geo.NewTerrain(1500, 1500)
	r := rand.New(rand.NewSource(7))
	b := NewGraphBuilder()
	for round := 0; round < 25; round++ {
		pts, down := randomScenario(r, terrain)
		g, err := b.Build(pts, down, 250, uint64(round))
		if err != nil {
			t.Fatal(err)
		}
		if g.Stamp() != uint64(round) {
			t.Fatalf("stamp = %d, want %d", g.Stamp(), round)
		}
		fresh, err := newGraph(pts, down, 250, uint64(round))
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fresh, g)
		// Exercise the route cache on this snapshot; the next Build must
		// not serve these distances again.
		n := g.Len()
		for trial := 0; trial < 10; trial++ {
			src, dst := r.Intn(n), r.Intn(n)
			if got, want := g.Hops(src, dst), fresh.Hops(src, dst); got != want {
				t.Fatalf("round %d: Hops(%d,%d) = %d, want %d", round, src, dst, got, want)
			}
			if got, want := g.NextHop(src, dst), fresh.NextHop(src, dst); got != want {
				t.Fatalf("round %d: NextHop(%d,%d) = %d, want %d", round, src, dst, got, want)
			}
		}
	}
}

// TestRouteCacheMatchesUncachedProperty: NextHop and Hops from the route
// cache must equal a fresh per-call BFS on random graphs and pairs — the
// property that makes the memoization behaviourally invisible.
func TestRouteCacheMatchesUncachedProperty(t *testing.T) {
	terrain, _ := geo.NewTerrain(1500, 1500)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts, down := randomScenario(r, terrain)
		g, err := newGraph(pts, down, 250, 0)
		if err != nil {
			return false
		}
		n := g.Len()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if got, want := g.NextHop(src, dst), nextHopRef(g, src, dst); got != want {
					t.Errorf("NextHop(%d,%d): cached %d, BFS %d", src, dst, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHopsAgreesWithHopsFrom: Hops, read from the memoized tables, must
// agree with a fresh BFS from the source.
func TestHopsAgreesWithHopsFrom(t *testing.T) {
	terrain, _ := geo.NewTerrain(1000, 1000)
	r := rand.New(rand.NewSource(3))
	pts, down := randomScenario(r, terrain)
	g, err := newGraph(pts, down, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.Len(); src++ {
		dist := hopsFrom(g, src)
		for dst := 0; dst < g.Len(); dst++ {
			if got := g.Hops(src, dst); got != dist[dst] {
				t.Fatalf("Hops(%d,%d) = %d, want %d", src, dst, got, dist[dst])
			}
		}
	}
}

// TestConnectedMatchesNeighborMembership: the binary-search Connected must
// agree with naive membership over the neighbour rows.
func TestConnectedMatchesNeighborMembership(t *testing.T) {
	terrain, _ := geo.NewTerrain(1200, 1200)
	r := rand.New(rand.NewSource(11))
	pts, down := randomScenario(r, terrain)
	g, err := newGraph(pts, down, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		want := map[int]bool{}
		for _, v := range g.Neighbors(i) {
			want[int(v)] = true
		}
		for j := 0; j < g.Len(); j++ {
			if got := g.Connected(i, j); got != want[j] {
				t.Fatalf("Connected(%d,%d) = %v, want %v", i, j, got, want[j])
			}
		}
	}
}

// TestHotQueriesDoNotAllocate pins the zero-alloc contract: once a
// snapshot's route table toward a destination is warm, NextHop, Hops and
// Connected allocate nothing.
func TestHotQueriesDoNotAllocate(t *testing.T) {
	terrain, _ := geo.NewTerrain(1500, 1500)
	r := rand.New(rand.NewSource(5))
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = terrain.RandomPoint(r)
	}
	g, err := newGraph(pts, nil, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.NextHop(0, 49) // warm dst 49's table
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			g.NextHop(0, 49)
			g.Hops(3, 49)
			g.Connected(0, 1)
		}
	}); total != 0 {
		t.Errorf("100 rounds of warm cached queries allocate %.0f objects, want 0", total)
	}
}

// TestCappedEvictionDoesNotAllocate pins the capped route cache's FIFO
// eviction: once the cap's tables exist, a lookup that evicts the oldest
// table and builds its own in the recycled one allocates nothing, at a
// small cap and at the cap scale runs use.
func TestCappedEvictionDoesNotAllocate(t *testing.T) {
	const n = 300
	terrain, _ := geo.NewTerrain(3000, 3000)
	r := rand.New(rand.NewSource(4))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = terrain.RandomPoint(r)
	}
	for _, tableCap := range []int{8, 256} {
		g, err := newGraph(pts, nil, 250, 0)
		if err != nil {
			t.Fatal(err)
		}
		g.SetRouteTableCap(tableCap)
		// Destinations cycle through all n > cap nodes, so every lookup
		// misses and evicts once the cap is reached.
		dst := 0
		lookup := func() {
			g.Hops((dst+1)%n, dst)
			dst = (dst + 1) % n
		}
		for range 2 * n {
			lookup()
		}
		// The count is process-wide, and the runtime's background
		// scavenger now and then grows its timer heap on a P, once. So the
		// loop is measured twice: an allocation in the lookups repeats in
		// both rounds, the runtime's does not.
		measure := func() float64 {
			return testing.AllocsPerRun(1, func() {
				for range 1000 {
					lookup()
				}
			})
		}
		if first, second := measure(), measure(); first != 0 && second != 0 {
			t.Errorf("cap %d: 1000 evicting lookups allocate %.0f and then %.0f objects, want 0", tableCap, first, second)
		}
		if g.RouteTables() != tableCap {
			t.Errorf("cap %d: %d live tables", tableCap, g.RouteTables())
		}
	}
}

// TestBuilderRebuildDoesNotAllocate: steady-state rebuilds over same-size
// fields must reuse every backing array.
func TestBuilderRebuildDoesNotAllocate(t *testing.T) {
	terrain, _ := geo.NewTerrain(1500, 1500)
	r := rand.New(rand.NewSource(9))
	const n = 50
	pts := make([]geo.Point, n)
	b := NewGraphBuilder()
	redraw := func() {
		for i := range pts {
			pts[i] = terrain.RandomPoint(r)
		}
	}
	redraw()
	if _, err := b.Build(pts, nil, 250, 0); err != nil {
		t.Fatal(err)
	}
	// A couple of warm-up rounds let tgt reach its high-water capacity.
	for i := 0; i < 5; i++ {
		redraw()
		if _, err := b.Build(pts, nil, 250, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		redraw()
		if _, err := b.Build(pts, nil, 250, 1); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.5 {
		t.Errorf("steady-state rebuild allocates %.2f/op, want ~0", avg)
	}
}
