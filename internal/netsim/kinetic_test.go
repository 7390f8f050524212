package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// topoHarness is one mobile or static churning network for the
// equivalence tests, with the references its snapshots are checked
// against: a from-scratch radio.GraphBuilder build and a fresh BFS.
type topoHarness struct {
	k    *sim.Kernel
	net  *Network
	src  PositionSource
	ref  *radio.GraphBuilder
	pos  []geo.Point
	down []bool
	// seen is the snapshot sample count at the last check.
	seen uint64
}

func newTopoHarness(t *testing.T, n int, seed int64, horizon time.Duration) *topoHarness {
	return newTopoHarnessOn(t, n, seed, horizon, waypoints(2000))
}

// fieldFn builds a harness's n nodes from the harness's kernel.
type fieldFn func(t *testing.T, k *sim.Kernel, n int) PositionSource

// waypoints moves the nodes by random waypoint on a side×side terrain at
// 1–20 m/s with one-second pauses.
func waypoints(side float64) fieldFn {
	return func(t *testing.T, k *sim.Kernel, n int) PositionSource {
		terrain, err := geo.NewTerrain(side, side)
		if err != nil {
			t.Fatal(err)
		}
		field, err := mobility.NewField(mobility.Config{
			Terrain:  terrain,
			MinSpeed: 1,
			MaxSpeed: 20,
			Pause:    time.Second,
		}, n, func(i int) *rand.Rand { return k.Stream(fmt.Sprintf("mobility.%d", i)) })
		if err != nil {
			t.Fatal(err)
		}
		return field
	}
}

// chainLayout is the static chain: a layout whose nodes never move.
func chainLayout(_ *testing.T, _ *sim.Kernel, n int) PositionSource { return chain(n) }

// scatterLayout pins the nodes uniformly on a side×side square.
func scatterLayout(side float64) fieldFn {
	return func(_ *testing.T, k *sim.Kernel, n int) PositionSource {
		rng := k.Stream("scatter")
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: side * rng.Float64(), Y: side * rng.Float64()}
		}
		return &staticSource{pts: pts}
	}
}

func newTopoHarnessOn(t *testing.T, n int, seed int64, horizon time.Duration, field fieldFn) *topoHarness {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(seed), sim.WithHorizon(horizon))
	src := field(t, k, n)
	cp, err := churn.NewProcess(churn.Config{
		MeanUp:   20 * time.Second,
		MeanDown: 4 * time.Second,
	}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(DefaultConfig(), k, src, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	return &topoHarness{k: k, net: net, src: src, ref: radio.NewGraphBuilder(), down: make([]bool, n)}
}

// check reads the snapshot at the current instant and, when it is a new
// sample, holds it to both references: checkRows, then checkRoutes on
// every pair whose source is a multiple of srcStep and destination a
// multiple of dstStep. It returns the snapshot and whether it was a new
// sample.
func (h *topoHarness) check(t *testing.T, srcStep, dstStep int) (*radio.Graph, bool) {
	t.Helper()
	g, fresh := h.checkRows(t)
	if fresh {
		checkRoutes(t, h.k.Now(), g, srcStep, dstStep)
	}
	return g, fresh
}

// checkRows reads the snapshot at the current instant. Graph() must
// schedule no kernel event. When the read is a new sample — taken at this
// instant, since the harness checks at every instant it reads — checkRows
// requires byte-identical Up flags and rows to a from-scratch build over
// the positions and Up mask read after Graph() at the same instant, so no
// extra draw is taken. It returns the snapshot and whether it was a new
// sample.
func (h *topoHarness) checkRows(t *testing.T) (*radio.Graph, bool) {
	t.Helper()
	at := h.k.Now()
	pending := h.k.Pending()
	g := h.net.Graph()
	if h.k.Pending() != pending {
		t.Fatalf("t=%v: Graph() changed the kernel queue from %d to %d events", at, pending, h.k.Pending())
	}
	if snapshots(h.net) == h.seen {
		return g, false
	}
	h.seen = snapshots(h.net)
	n := h.net.Len()
	h.pos = h.src.PositionsAt(at, h.pos)
	for i := range h.down {
		h.down[i] = !h.net.Up(i)
	}
	ref, err := h.ref.Build(h.pos, h.down, h.net.cfg.CommRange, g.Stamp())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if g.Up(i) != ref.Up(i) {
			t.Fatalf("t=%v node %d: up kinetic=%v reference=%v", at, i, g.Up(i), ref.Up(i))
		}
		if !slices.Equal(g.Neighbors(i), ref.Neighbors(i)) {
			t.Fatalf("t=%v node %d: neighbours kinetic=%v reference=%v",
				at, i, g.Neighbors(i), ref.Neighbors(i))
		}
	}
	return g, true
}

// checkRoutes requires g's memoized Hops and NextHop to equal a fresh BFS
// over g's own rows on every pair whose source is a multiple of srcStep
// and destination a multiple of dstStep; at is the sample time, for the
// failure message.
func checkRoutes(t *testing.T, at time.Duration, g *radio.Graph, srcStep, dstStep int) {
	t.Helper()
	n := g.Len()
	for dst := 0; dst < n; dst += dstStep {
		dist := hopsFrom(g, dst)
		for src := 0; src < n; src += srcStep {
			if got := g.Hops(src, dst); got != dist[src] {
				t.Fatalf("t=%v Hops(%d,%d): kinetic %d, BFS %d", at, src, dst, got, dist[src])
			}
			want := radio.Unreachable
			if src != dst && g.Up(src) && g.Up(dst) {
				for _, v := range g.Neighbors(src) {
					if dist[v] != radio.Unreachable && (want == radio.Unreachable || dist[v] < dist[want]) {
						want = int(v)
					}
				}
			}
			if got := g.NextHop(src, dst); got != want {
				t.Fatalf("t=%v NextHop(%d,%d): kinetic %d, BFS %d", at, src, dst, got, want)
			}
		}
	}
}

// hopsFrom runs a fresh BFS from src over g's rows: the hop distance to
// every node, Unreachable where no path exists or src is down.
func hopsFrom(g *radio.Graph, src int) []int {
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = radio.Unreachable
	}
	if !g.Up(src) {
		return dist
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range g.Neighbors(u) {
			if dist[v] == radio.Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// matchFullRebuild advances one seeded churning network to each of the
// given sample times and checks every new snapshot against the
// references (check). It returns the harness for the caller's own
// assertions, and the longest jump any node's anchor made at one sample:
// the drift from its old anchor of the farthest-drifted node a sample
// re-anchored.
func matchFullRebuild(t *testing.T, n int, seed int64, samples []time.Duration, field fieldFn) (h *topoHarness, jump float64) {
	t.Helper()
	h = newTopoHarnessOn(t, n, seed, samples[len(samples)-1], field)
	old := make([]geo.Point, n)
	for _, at := range samples {
		h.k.RunUntil(at)
		inited := h.net.kin.inited
		copy(old, h.net.kin.anchors)
		if _, fresh := h.check(t, 3, 7); !fresh || !inited {
			continue
		}
		for i, a := range h.net.kin.anchors {
			jump = max(jump, a.Dist(old[i]))
		}
	}
	return h, jump
}

// TestKineticMatchesFullRebuild is the adjacency-equivalence gate at a
// dense sampling cadence, with the kinetic side's route tables surviving
// via incremental repair rather than resets.
func TestKineticMatchesFullRebuild(t *testing.T) {
	const (
		n       = 140 // above the small-build cutoff: exercises the grid path too
		horizon = 45 * time.Second
		tick    = 250 * time.Millisecond
	)
	var samples []time.Duration
	for at := tick; at <= horizon; at += tick {
		samples = append(samples, at)
	}
	kin, _ := matchFullRebuild(t, n, 11, samples, waypoints(2000))

	st := kin.net.TopologyStats()
	if st.FullRebuilds != 1 {
		t.Errorf("kinetic full rebuilds = %d, want exactly 1", st.FullRebuilds)
	}
	if st.KineticSamples == 0 {
		t.Error("no kinetic incremental samples recorded")
	}
	if st.LinkMakes == 0 || st.LinkBreaks == 0 {
		t.Errorf("no link dynamics recorded (makes=%d breaks=%d) — scenario too static to prove anything",
			st.LinkMakes, st.LinkBreaks)
	}
	if st.Rebins == 0 {
		t.Error("no Verlet rebins recorded")
	}
	if st.RoutesRepaired == 0 {
		t.Error("no stale route table was caught up by in-place repair when read — on-demand repair path never exercised")
	}
}

// sparseSamples is a run of sparse, irregular sample times: nothing
// advances the plane between reads, so at most of them nodes have drifted
// several skin widths from their anchors (a 20 m/s node covers five skins
// in 30 s).
func sparseSamples() []time.Duration {
	gaps := []time.Duration{
		30 * time.Second, 47 * time.Second, 250 * time.Millisecond, 61 * time.Second,
		33 * time.Second, time.Second, 90 * time.Second, 38500 * time.Millisecond,
		3 * time.Millisecond, 52 * time.Second, 31 * time.Second, 125 * time.Second,
	}
	var samples []time.Duration
	var at time.Duration
	for _, g := range gaps {
		at += g
		samples = append(samples, at)
	}
	return samples
}

// TestKineticMatchesFullRebuildSparseSampling reads snapshots at sparse,
// irregular times with churn on, so a sample re-anchors nodes that
// drifted more than a whole skin: the case in which a pair could be
// dropped against a stale anchor unless every anchor is fresh first
// (TestKineticDiffParity holds the diffs to that). Snapshots must still
// equal the full rebuild's.
func TestKineticMatchesFullRebuildSparseSampling(t *testing.T) {
	const n = 140
	for _, seed := range []int64{11, 12} {
		kin, jump := matchFullRebuild(t, n, seed, sparseSamples(), waypoints(2000))
		st := kin.net.TopologyStats()
		if st.FullRebuilds != 1 {
			t.Errorf("seed %d: %d full rebuilds, want 1", seed, st.FullRebuilds)
		}
		if skin := kin.net.kin.skin; jump <= skin {
			t.Errorf("seed %d: no sample re-anchored a node that drifted more than a skin (%.0f m, longest jump %.0f m) — the gaps are too short to test the re-anchor order", seed, skin, jump)
		}
	}
}

// converging is a kinetic source whose nodes each travel in a straight
// line from a uniform start on a 2 km terrain to a point of a 150 m disk
// at its centre, then stay there: a layout that starts sparse and ends as
// one clique, so every row grows far past what init sized it for.
type converging struct {
	from, to []geo.Point
	arrive   []time.Duration
}

func convergingField(t *testing.T, k *sim.Kernel, n int) PositionSource {
	rng := k.Stream("converging")
	c := &converging{from: make([]geo.Point, n), to: make([]geo.Point, n), arrive: make([]time.Duration, n)}
	for i := range n {
		c.from[i] = geo.Point{X: 2000 * rng.Float64(), Y: 2000 * rng.Float64()}
		r, a := 150*rng.Float64(), 2*math.Pi*rng.Float64()
		c.to[i] = geo.Point{X: 1000 + r*math.Cos(a), Y: 1000 + r*math.Sin(a)}
		speed := 5 + 15*rng.Float64()
		c.arrive[i] = time.Duration(c.from[i].Dist(c.to[i]) / speed * float64(time.Second))
	}
	return c
}

func (c *converging) Len() int { return len(c.from) }

func (c *converging) PositionsAt(t time.Duration, dst []geo.Point) []geo.Point {
	dst = dst[:0]
	for i := range c.from {
		if t >= c.arrive[i] {
			dst = append(dst, c.to[i])
		} else {
			dst = append(dst, c.from[i].Lerp(c.to[i], float64(t)/float64(c.arrive[i])))
		}
	}
	return dst
}

// TestKineticMatchesFullRebuildPastRowSlack runs the equivalence gate on
// the converging layout: the rows init carved hold the sparse start's
// counts with slack, the clique at the end needs every node in every row,
// so rows fall back to append mid-run — and snapshots must not notice.
func TestKineticMatchesFullRebuildPastRowSlack(t *testing.T) {
	const n = 140
	var samples []time.Duration
	for at := 500 * time.Millisecond; at <= 5*time.Minute; at += 500 * time.Millisecond {
		samples = append(samples, at)
	}
	// The rows as init carved them: the same seed and first sample.
	first := newTopoHarnessOn(t, n, 11, samples[0], convergingField)
	first.k.RunUntil(samples[0])
	first.net.Graph()
	kin, _ := matchFullRebuild(t, n, 11, samples, convergingField)
	outgrown := 0
	for u := range n {
		if len(kin.net.kin.tracked[u]) > cap(first.net.kin.tracked[u]) {
			outgrown++
		}
	}
	if outgrown < n/2 {
		t.Errorf("%d of %d tracked rows outgrew their init slack; the layout does not exercise the fallback", outgrown, n)
	}
}

// TestStaticLayoutsMatchFullRebuild runs the equivalence gate on layouts
// whose nodes never move — a chain and 200 scattered nodes, both with
// churn: no node ever re-anchors, no pair's link flips, and the edge
// changes, which route repair consumes, come from the down mask alone.
func TestStaticLayoutsMatchFullRebuild(t *testing.T) {
	var samples []time.Duration
	for at := 250 * time.Millisecond; at <= time.Minute; at += 250 * time.Millisecond {
		samples = append(samples, at)
	}
	for _, layout := range []struct {
		name  string
		n     int
		field fieldFn
	}{
		{"chain", 30, chainLayout},
		{"scatter", 200, scatterLayout(2000)},
	} {
		h, _ := matchFullRebuild(t, layout.n, 11, samples, layout.field)
		st := h.net.TopologyStats()
		if st.FullRebuilds != 1 || st.KineticSamples == 0 {
			t.Errorf("%s: %d full rebuilds and %d kinetic samples, want 1 and some",
				layout.name, st.FullRebuilds, st.KineticSamples)
		}
		if st.Rebins != 0 || st.LinkMakes != 0 || st.LinkBreaks != 0 {
			t.Errorf("%s: %d rebins, %d makes and %d breaks on nodes that never move",
				layout.name, st.Rebins, st.LinkMakes, st.LinkBreaks)
		}
		if st.RoutesRepaired == 0 {
			t.Errorf("%s: no route table was repaired; the down mask's diffs never reached one", layout.name)
		}
	}
}

// TestKineticSteadyStateAllocationBudget pins the kinetic plane's steady
// state on a 2 000-node random-waypoint run at Table 1 density: after a
// two-minute warm-up, a sample allocates almost nothing — the rows, the
// pair slab and the cell bins were carved with slack at init, and a row
// outgrowing its slack or a node entering a cell init never saw takes
// room from the plane's row slab, which allocates a chunk now and then.
// Measured (go1.24, linux/amd64): 0.015 mallocs per sample in the first
// window and 0.023 in the second (row slab chunks and scratch lists
// reaching a new high water), up to 0.025 in one run of ten where the
// runtime allocates in the window too, against 0.27 while such a row
// appended into an array of its own, and 2.63 while every row grew one
// append at a time. The budget is the measurement + 20 % and only ever
// tightens.
//
// The count is process-wide, and in about one run of ten to thirty the
// runtime makes a dozen mallocs of its own inside a window. So two
// consecutive two-minute windows are measured: an allocation in the
// plane repeats in both, the runtime's does not.
func TestKineticSteadyStateAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000-node kinetic run skipped in -short mode")
	}
	const n = 2000
	const budget = 1.2 * 0.025
	const warm, window = 2 * time.Minute, 2 * time.Minute
	h := newTopoHarnessOn(t, n, 1, warm+2*window, waypoints(1500*math.Sqrt(n/50.0)))
	at := time.Duration(0)
	for at < warm {
		at += 250 * time.Millisecond
		h.k.RunUntil(at)
		h.net.Graph()
	}
	// measure runs the plane through the next window and returns its
	// mallocs per kinetic sample.
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		samples0 := h.net.TopologyStats().KineticSamples
		for end := at + window; at < end; {
			at += 250 * time.Millisecond
			h.k.RunUntil(at)
			h.net.Graph()
		}
		runtime.ReadMemStats(&after)
		samples := h.net.TopologyStats().KineticSamples - samples0
		if samples == 0 {
			t.Fatal("no kinetic sample in the window")
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(samples)
		t.Logf("%.3f mallocs per kinetic sample (%d samples)", per, samples)
		return per
	}
	if first, second := measure(), measure(); first > budget && second > budget {
		t.Errorf("%.3f and then %.3f mallocs per kinetic sample in the steady state; budget %.3f", first, second, budget)
	}
}

// TestKineticDiffParity checks the kinetic plane's internal contract
// directly: at every incremental sample, the emitted CSR edge diffs must
// be exactly the edge changes between consecutive snapshots — every change
// present with its direction, nothing else, no edge twice — and every
// route table the cache answers from must agree with a fresh BFS over the
// same CSR. It runs at a dense tick and at the sparse sample times, where
// nodes re-anchor after drifting several skins.
func TestKineticDiffParity(t *testing.T) {
	const tick, horizon = 250 * time.Millisecond, 30 * time.Second
	var dense []time.Duration
	for at := tick; at <= horizon; at += tick {
		dense = append(dense, at)
	}
	diffParity(t, 11, dense)
	for _, seed := range []int64{11, 12} {
		diffParity(t, seed, sparseSamples())
	}
}

// diffParity runs TestKineticDiffParity's checks on one seeded 140-node
// network read at the given sample times.
func diffParity(t *testing.T, seed int64, samples []time.Duration) {
	t.Helper()
	const n = 140
	h := newTopoHarnessOn(t, n, seed, samples[len(samples)-1], waypoints(2000))
	key := func(u, v int32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(uint32(u))<<32 | uint64(uint32(v))
	}
	edgeSet := func(g *radio.Graph) map[uint64]bool {
		set := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i) {
				set[key(int32(i), j)] = true
			}
		}
		return set
	}
	var prev map[uint64]bool
	for _, at := range samples {
		h.k.RunUntil(at)
		before := snapshots(h.net)
		g := h.net.Graph()
		if snapshots(h.net) == before {
			continue // cached snapshot: no sample, no diffs
		}
		next := edgeSet(g)
		if prev != nil {
			emitted := make(map[uint64]bool)
			for _, d := range h.net.diffBuf {
				k := key(d.U, d.V)
				if _, twice := emitted[k]; twice {
					t.Fatalf("seed %d t=%v: edge (%d,%d) emitted twice", seed, at, d.U, d.V)
				}
				emitted[k] = d.Add
				if d.Add == prev[k] || d.Add != next[k] {
					t.Fatalf("seed %d t=%v: emitted (%d,%d,add=%v), but the edge was %v before and is %v after",
						seed, at, d.U, d.V, d.Add, prev[k], next[k])
				}
			}
			for k := range next {
				if _, ok := emitted[k]; !prev[k] && !ok {
					t.Fatalf("seed %d t=%v: added edge (%d,%d) missing from the diffs", seed, at, int32(k>>32), int32(uint32(k)))
				}
			}
			for k := range prev {
				if _, ok := emitted[k]; !next[k] && !ok {
					t.Fatalf("seed %d t=%v: removed edge (%d,%d) missing from the diffs", seed, at, int32(k>>32), int32(uint32(k)))
				}
			}
			for dst := 0; dst < n; dst++ {
				ref := hopsFrom(g, dst)
				for src := 0; src < n; src++ {
					if src == dst || !g.Up(src) || !g.Up(dst) {
						continue
					}
					if got := g.Hops(src, dst); got != ref[src] {
						t.Fatalf("seed %d t=%v: dst=%d src=%d: cached hops %d, fresh BFS %d", seed, at, dst, src, got, ref[src])
					}
				}
			}
		}
		prev = next
		// Warm tables so the next sample's repair has a full population.
		for s := 0; s < n; s += 3 {
			for d := 0; d < n; d += 7 {
				g.Hops(s, d)
			}
		}
	}
}

// TestKineticRouteTableCapHolds pins that a capped kinetic run never
// keeps more than the configured number of live route tables.
func TestKineticRouteTableCapHolds(t *testing.T) {
	const n = 60
	h := newTopoHarness(t, n, 5, 20*time.Second)
	h.net.cfg.RouteTableCap = 8
	rng := rand.New(rand.NewSource(1))
	for at := 500 * time.Millisecond; at <= 20*time.Second; at += 500 * time.Millisecond {
		h.k.RunUntil(at)
		g := h.net.Graph()
		for q := 0; q < 20; q++ {
			g.Hops(rng.Intn(n), rng.Intn(n))
		}
		if g.RouteTables() > 8 {
			t.Fatalf("t=%v: %d live route tables, cap 8", at, g.RouteTables())
		}
	}
}

// divergingField is convergingField run backwards: the nodes start in the
// 150 m disk and spread out over the 2 km terrain. The source reports no
// terrain, so the plane sizes its grid from the starting disk and every
// node that leaves it is clamped onto the grid's edge cells.
func divergingField(t *testing.T, k *sim.Kernel, n int) PositionSource {
	c := convergingField(t, k, n).(*converging)
	c.from, c.to = c.to, c.from
	return c
}

// offGrid counts the nodes whose anchor lies outside the plane's grid,
// i.e. whose cell was clamped.
func offGrid(kn *kinetic) int {
	off := 0
	for _, a := range kn.anchors {
		cx, cy := math.Floor(a.X/kn.cell)-kn.ox, math.Floor(a.Y/kn.cell)-kn.oy
		if cx < 0 || cy < 0 || cx >= float64(kn.gw) || cy >= float64(kn.gh) {
			off++
		}
	}
	return off
}

// TestKineticGridSizing pins where the dense cell grid comes from and that
// snapshots do not depend on it: a mobility field's grid is its terrain at
// side R+skin (the cells the byte-compared runs bin by); a source without
// a terrain gets its starting positions' extent and clamps whatever
// leaves it; a sparse layout's grid is coarsened to maxCells. Each runs
// the full-rebuild equivalence gate.
func TestKineticGridSizing(t *testing.T) {
	var samples []time.Duration
	for at := 500 * time.Millisecond; at <= 3*time.Minute; at += 500 * time.Millisecond {
		samples = append(samples, at)
	}
	h, _ := matchFullRebuild(t, 140, 11, samples[:60], waypoints(2000))
	kn := h.net.kin
	if kn.cell != kn.side || kn.ox != 0 || kn.oy != 0 || kn.gw != 6 || kn.gh != 6 {
		t.Errorf("terrain grid: cell %g (side %g), origin (%g, %g), %d×%d cells; want the 2 km terrain at side, 6×6",
			kn.cell, kn.side, kn.ox, kn.oy, kn.gw, kn.gh)
	}

	h, _ = matchFullRebuild(t, 140, 11, samples, divergingField)
	kn = h.net.kin
	if kn.gw*kn.gh > 4 {
		t.Errorf("diverging: %d×%d grid over a 300 m start", kn.gw, kn.gh)
	}
	if off := offGrid(kn); off < 140/2 {
		t.Errorf("diverging: only %d of 140 anchors off the grid; clamping is not exercised", off)
	}
	if kn.stats.Rebins == 0 || kn.stats.LinkBreaks == 0 {
		t.Error("diverging: no rebins or breaks; the layout does not move")
	}

	h, _ = matchFullRebuild(t, 200, 11, samples[:20], scatterLayout(1e6))
	kn = h.net.kin
	if kn.cell <= kn.side || float64(kn.gw)*float64(kn.gh) > maxCells(200) {
		t.Errorf("sparse scatter: cell %g for side %g, %d×%d cells; want a grid coarsened to at most %g cells",
			kn.cell, kn.side, kn.gw, kn.gh, maxCells(200))
	}
}

// countingSource records the time of every PositionsAt call on a mobility
// field.
type countingSource struct {
	*mobility.Field
	calls []time.Duration
}

func (c *countingSource) PositionsAt(t time.Duration, dst []geo.Point) []geo.Point {
	c.calls = append(c.calls, t)
	return c.Field.PositionsAt(t, dst)
}

// TestEachSampleReadsPositionsOnce pins the sampling RPCC's moving-rate
// signal rests on: Waypoint.PositionAt counts subnet crossings (N_m,
// Moves) when it is called, and the network calls it — through
// PositionsAt — exactly once per topology sample, at the sample time, and
// at no other time: a cached snapshot, Reachable and the traffic between
// samples read no position.
func TestEachSampleReadsPositionsOnce(t *testing.T) {
	const n = 60
	k := sim.NewKernel(sim.WithSeed(5), sim.WithHorizon(2*time.Minute))
	src := &countingSource{Field: waypoints(1500)(t, k, n).(*mobility.Field)}
	cp, err := churn.NewProcess(churn.Config{MeanUp: 20 * time.Second, MeanDown: 4 * time.Second}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(DefaultConfig(), k, src, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	var samples []time.Duration
	rng := rand.New(rand.NewSource(5))
	for at := time.Duration(0); at <= 2*time.Minute; at += time.Duration(rng.Intn(700)) * time.Millisecond {
		k.RunUntil(at)
		before := snapshots(net)
		for range 1 + rng.Intn(3) { // repeated reads at one instant hit the cache
			net.Graph()
			net.Reachable(rng.Intn(n), rng.Intn(n))
		}
		switch snapshots(net) - before {
		case 0:
		case 1:
			samples = append(samples, k.Now())
		default:
			t.Fatalf("t=%v: %d samples at one instant", k.Now(), snapshots(net)-before)
		}
	}
	if len(samples) < 50 {
		t.Fatalf("only %d samples", len(samples))
	}
	if !slices.Equal(src.calls, samples) {
		t.Fatalf("PositionsAt called at %d instants, samples taken at %d: calls %v…, samples %v…",
			len(src.calls), len(samples), src.calls[:min(5, len(src.calls))], samples[:5])
	}
}
