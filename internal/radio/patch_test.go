package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/manetlab/rpcc/internal/geo"
)

// edgeKey packs an undirected pair (u < v).
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// geoRows computes sorted geometric neighbour rows (ignoring down state),
// the representation the kinetic plane hands to RebuildFromRows.
func geoRows(pos []geo.Point, commRange float64) [][]int32 {
	n := len(pos)
	r2 := commRange * commRange
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && pos[i].DistSq(pos[j]) <= r2 {
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	return rows
}

// csrEdges collects the up-up filtered edge set from rows+down.
func csrEdges(rows [][]int32, down []bool) map[uint64]bool {
	set := make(map[uint64]bool)
	for i, row := range rows {
		if down[i] {
			continue
		}
		for _, j := range row {
			if !down[j] {
				set[edgeKey(int32(i), j)] = true
			}
		}
	}
	return set
}

// edgeDiffs returns the CSR edge changes from prev to next.
func edgeDiffs(prev, next map[uint64]bool) []EdgeDiff {
	var diffs []EdgeDiff
	for k := range next {
		if !prev[k] {
			diffs = append(diffs, EdgeDiff{U: int32(k >> 32), V: int32(uint32(k)), Add: true})
		}
	}
	for k := range prev {
		if !next[k] {
			diffs = append(diffs, EdgeDiff{U: int32(k >> 32), V: int32(uint32(k)), Add: false})
		}
	}
	return diffs
}

// TestPatchRoutesMatchesFreshBFS drives a random mobile + churn history
// through RebuildFromRows + PatchRoutes and checks that every distance
// table, however long it went unread, answers Hops and NextHop exactly
// like a freshly built reference snapshot. Between reads a table sits out
// one to six samples — from a one-sample window to one the bounded log has
// already trimmed — while links flap (a visitor node is parked next to a
// stranger for a single sample, so its edges are added and removed inside
// the window), nodes flip down and up, and, in the capped variant, FIFO
// eviction recycles tables underneath the repair.
func TestPatchRoutesMatchesFreshBFS(t *testing.T) {
	for _, tableCap := range []int{0, 12} {
		t.Run(fmt.Sprintf("cap=%d", tableCap), func(t *testing.T) { testPatchRoutes(t, tableCap) })
	}
}

func testPatchRoutes(t *testing.T, tableCap int) {
	const (
		n         = 60
		rounds    = 60
		commRange = 180.0
		world     = 1000.0
	)
	rng := rand.New(rand.NewSource(7))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * world, Y: rng.Float64() * world}
	}
	down := make([]bool, n)

	inc := NewGraphBuilder()
	ref := NewGraphBuilder()

	rows := geoRows(pos, commRange)
	row := func(i int) []int32 { return rows[i] }
	prev := csrEdges(rows, down)
	g, err := inc.RebuildFromRows(n, row, down, commRange, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRouteTableCap(tableCap)
	for dst := 0; dst < n; dst++ {
		g.Hops((dst+1)%n, dst)
	}

	// Coverage the history must actually produce, or the test proves less
	// than it says.
	var flapped, inWindow, pastLog int
	stamp := uint64(0)
	sample := func() []EdgeDiff {
		rows = geoRows(pos, commRange)
		next := csrEdges(rows, down)
		diffs := edgeDiffs(prev, next)
		prev = next
		stamp++
		if g, err = inc.RebuildFromRows(n, row, down, commRange, stamp); err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes(diffs)
		return diffs
	}

	for round := 1; round <= rounds; round++ {
		// Samples nobody reads: drift, churn, and one flapping visitor.
		added := make(map[uint64]bool)
		for k := 1 + rng.Intn(6); k > 0; k-- {
			for i := range pos {
				pos[i].X += (rng.Float64() - 0.5) * 40
				pos[i].Y += (rng.Float64() - 0.5) * 40
			}
			if rng.Intn(2) == 0 {
				i := rng.Intn(n)
				down[i] = !down[i]
			}
			visitor, host := rng.Intn(n), rng.Intn(n)
			home := pos[visitor]
			pos[visitor] = geo.Point{X: pos[host].X + 1, Y: pos[host].Y + 1}
			for _, d := range sample() {
				if d.Add {
					added[edgeKey(d.U, d.V)] = true
				}
			}
			pos[visitor] = home
			for _, d := range sample() {
				if !d.Add && added[edgeKey(d.U, d.V)] {
					flapped++
				}
			}
		}

		refG, err := ref.buildPairwise(pos, down, commRange, stamp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(g.Neighbors(i), refG.Neighbors(i)) {
				t.Fatalf("round %d: node %d neighbours %v != ref %v", round, i, g.Neighbors(i), refG.Neighbors(i))
			}
		}

		// Read a third of the destinations (all of them every eighth
		// round); the rest lag on into the next round.
		for dst := 0; dst < n; dst++ {
			if round%8 != 0 && rng.Intn(3) != 0 {
				continue
			}
			if synced, ok := tableSynced(g, dst); ok {
				switch pending := g.logEnd - synced; {
				case pending > len(g.diffLog):
					pastLog++
				case pending > 0:
					inWindow++
				}
			}
			for src := 0; src < n; src++ {
				if got, want := g.Hops(src, dst), refG.Hops(src, dst); got != want {
					t.Fatalf("round %d: Hops(%d,%d) = %d, fresh = %d", round, src, dst, got, want)
				}
				if got, want := g.NextHop(src, dst), refG.NextHop(src, dst); got != want {
					t.Fatalf("round %d: NextHop(%d,%d) = %d, fresh = %d", round, src, dst, got, want)
				}
			}
			if tableCap > 0 && g.RouteTables() > tableCap {
				t.Fatalf("round %d: %d live tables, cap %d", round, g.RouteTables(), tableCap)
			}
		}
		if limit := g.repairLimit(); len(g.diffLog) > 2*limit {
			t.Fatalf("round %d: log holds %d diffs, bound %d", round, len(g.diffLog), 2*limit)
		}
	}

	repaired, dropped := g.RouteRepairs()
	if flapped == 0 || inWindow == 0 || pastLog == 0 || repaired == 0 || dropped == 0 {
		t.Fatalf("history too tame: %d edges flapped inside a window, %d tables read inside the log, %d past it, %d repaired, %d dropped",
			flapped, inWindow, pastLog, repaired, dropped)
	}
}

// TestRepairSteadyStateDoesNotAllocate pins repairTable's scratch reuse:
// once the work stack, the invalidated list, the relaxation queue and the
// diff log have grown to the workload, logging a sample and catching
// every table up allocates nothing.
func TestRepairSteadyStateDoesNotAllocate(t *testing.T) {
	const (
		n         = 80
		commRange = 180.0
	)
	rng := rand.New(rand.NewSource(5))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	down := make([]bool, n)
	// Two topologies one relocated node apart, and the diffs between them.
	var rows [2][][]int32
	rows[0] = geoRows(pos, commRange)
	pos[rng.Intn(n)] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	rows[1] = geoRows(pos, commRange)
	edges := [2]map[uint64]bool{csrEdges(rows[0], down), csrEdges(rows[1], down)}
	diffs := [2][]EdgeDiff{edgeDiffs(edges[1], edges[0]), edgeDiffs(edges[0], edges[1])}
	if len(diffs[0]) == 0 {
		t.Fatal("the two topologies do not differ")
	}

	b := NewGraphBuilder()
	cur := 0
	row := func(i int) []int32 { return rows[cur][i] }
	step := func() {
		cur = 1 - cur
		g, err := b.RebuildFromRows(n, row, down, commRange, 0)
		if err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes(diffs[cur])
		for dst := 0; dst < n; dst++ {
			g.Hops((dst+1)%n, dst)
		}
	}
	for i := 0; i < 50; i++ {
		step() // warm up: build the tables, grow the scratch and the log
	}
	before, _ := b.g.RouteRepairs()
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			step()
		}
	}); total != 0 {
		t.Errorf("100 steady-state route repairs allocate %.0f objects, want 0", total)
	}
	if after, _ := b.g.RouteRepairs(); after == before {
		t.Fatal("no table was repaired in place; the pin measured nothing")
	}
}

// TestSmallBuildUsesIdenticalSnapshot pins that the small-n pairwise
// fast path and the grid path emit byte-identical CSR rows right around
// the cutoff.
func TestSmallBuildCutoffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{smallBuildCutoff - 1, smallBuildCutoff, smallBuildCutoff + 1, smallBuildCutoff + 40} {
		pos := make([]geo.Point, n)
		for i := range pos {
			pos[i] = geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
		}
		a, err := NewGraphBuilder().Build(pos, nil, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGraphBuilder().buildPairwise(pos, nil, 250, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(a.Neighbors(i), b.Neighbors(i)) {
				t.Fatalf("n=%d node %d: grid/pairwise rows differ", n, i)
			}
		}
	}
}

// TestMobileRepairAndCappedFillDoNotAllocate pins the route cache's
// storage on a mobile history. Filling a capped cache carves its tables
// from doubling chunks, so 256 tables cost a few allocations per doubling,
// not one each. Once warm, a cycle of samples of a random walk, each
// catching every table up, and lookups past the cap, each evicting a table
// and rebuilding it in place, allocate nothing: the repair's one
// relaxation queue has reached the deepest repair of the cycle.
func TestMobileRepairAndCappedFillDoNotAllocate(t *testing.T) {
	const (
		n         = 300
		samples   = 6
		commRange = 180.0
		world     = 1800.0
		tableCap  = 256
	)
	rng := rand.New(rand.NewSource(11))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * world, Y: rng.Float64() * world}
	}
	down := make([]bool, n)
	var rows [samples][][]int32
	var edges [samples]map[uint64]bool
	for s := range samples {
		for i := range pos {
			pos[i].X = min(max(pos[i].X+rng.Float64()*16-8, 0), world)
			pos[i].Y = min(max(pos[i].Y+rng.Float64()*16-8, 0), world)
		}
		rows[s] = geoRows(pos, commRange)
		edges[s] = csrEdges(rows[s], down)
	}
	// diffs[s] leads from sample s-1 to sample s, the last back to the
	// first, so the history can cycle.
	var diffs [samples][]EdgeDiff
	for s := range samples {
		diffs[s] = edgeDiffs(edges[(s+samples-1)%samples], edges[s])
	}

	b := NewGraphBuilder()
	cur := 0
	row := func(i int) []int32 { return rows[cur][i] }
	g, err := b.RebuildFromRows(n, row, down, commRange, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRouteTableCap(tableCap)
	fill := testing.AllocsPerRun(1, func() {
		g.resize(0) // a fresh cache each run
		g.resize(n)
		for dst := range tableCap {
			g.Hops((dst+1)%n, dst)
		}
	})
	if fill > 40 {
		t.Errorf("filling %d route tables allocates %.0f objects, want a few per doubling", tableCap, fill)
	}

	dst := 0
	step := func() {
		cur = (cur + 1) % samples
		if _, err := b.RebuildFromRows(n, row, down, commRange, 0); err != nil {
			t.Fatal(err)
		}
		g.PatchRoutes(diffs[cur])
		for _, d := range g.routes.(*routes[int16]).built {
			g.Hops((int(d)+1)%n, int(d)) // catch every live table up
		}
		for range 8 { // and look past the cap
			dst = (dst + 1) % n
			g.Hops((dst+1)%n, dst)
		}
	}
	for range 3 * samples {
		step() // warm up: every scratch slice reaches its high water
	}
	before, _ := g.RouteRepairs()
	// The count is process-wide, and the runtime now and then allocates
	// once on its own; so the cycle is measured twice: an allocation in the
	// route cache repeats in both rounds, the runtime's does not.
	measure := func() float64 {
		return testing.AllocsPerRun(1, func() {
			for range 5 * samples {
				step()
			}
		})
	}
	if first, second := measure(), measure(); first != 0 && second != 0 {
		t.Errorf("a warm mobile cycle of repairs and evictions allocates %.0f and then %.0f objects, want 0", first, second)
	}
	after, dropped := g.RouteRepairs()
	t.Logf("fill: %.0f allocations; %d tables repaired in place, %d rebuilt", fill, after, dropped)
	if after == before {
		t.Fatal("no table was repaired in place; the pin measured nothing")
	}
	if g.RouteTables() != tableCap {
		t.Fatalf("%d live tables, want the cap %d", g.RouteTables(), tableCap)
	}
}
