package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// topoHarness is one independently-kernelled network for the lockstep
// equivalence tests: same seed, same mobility/churn configuration, with
// or without the kinetic plane.
type topoHarness struct {
	k   *sim.Kernel
	net *Network
}

func newTopoHarness(t *testing.T, n int, seed int64, kinetic bool, horizon time.Duration) *topoHarness {
	return newTopoHarnessOn(t, n, seed, kinetic, horizon, waypoints(2000))
}

// fieldFn builds a harness's n moving nodes from the harness's kernel.
type fieldFn func(t *testing.T, k *sim.Kernel, n int) KineticSource

// waypoints moves the nodes by random waypoint on a side×side terrain at
// 1–20 m/s with one-second pauses.
func waypoints(side float64) fieldFn {
	return func(t *testing.T, k *sim.Kernel, n int) KineticSource {
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

func newTopoHarnessOn(t *testing.T, n int, seed int64, kinetic bool, horizon time.Duration, field fieldFn) *topoHarness {
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
	cfg := DefaultConfig()
	cfg.Kinetic = kinetic
	net, err := New(cfg, k, src, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	return &topoHarness{k: k, net: net}
}

// matchFullRebuild advances two identically seeded mobile+churn networks —
// one maintaining topology kinetically, one doing full rebuilds — to each
// of the given sample times and requires byte-identical CSR snapshots, hop
// distances and next-hop choices at every one. It returns the kinetic
// side for the caller's own assertions, and how many samples healed a
// pair inside one drain: an edge present on both sides of the sample whose
// diffs nevertheless hold a removal and an addition — dropped against a
// stale anchor, then re-discovered by the other endpoint's overdue rebin.
func matchFullRebuild(t *testing.T, n int, seed int64, samples []time.Duration, field fieldFn) (kin *topoHarness, healed int) {
	t.Helper()
	horizon := samples[len(samples)-1]
	kin = newTopoHarnessOn(t, n, seed, true, horizon, field)
	ser := newTopoHarnessOn(t, n, seed, false, horizon, field)
	edgeKey := func(u, v int32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(uint32(u))<<32 | uint64(uint32(v))
	}
	for _, at := range samples {
		kin.k.RunUntil(at)
		ser.k.RunUntil(at)
		before := kin.net.Rebuilds()
		gk, gs := kin.net.Graph(), ser.net.Graph()
		for i := 0; i < n; i++ {
			if gk.Up(i) != gs.Up(i) {
				t.Fatalf("t=%v node %d: up kinetic=%v serial=%v", at, i, gk.Up(i), gs.Up(i))
			}
			if !slices.Equal(gk.Neighbors(i), gs.Neighbors(i)) {
				t.Fatalf("t=%v node %d: neighbours kinetic=%v serial=%v",
					at, i, gk.Neighbors(i), gs.Neighbors(i))
			}
		}
		for src := 0; src < n; src += 3 {
			for dst := 0; dst < n; dst += 7 {
				if got, want := gk.Hops(src, dst), gs.Hops(src, dst); got != want {
					t.Fatalf("t=%v Hops(%d,%d): kinetic %d, serial %d", at, src, dst, got, want)
				}
				if got, want := gk.NextHop(src, dst), gs.NextHop(src, dst); got != want {
					t.Fatalf("t=%v NextHop(%d,%d): kinetic %d, serial %d", at, src, dst, got, want)
				}
			}
		}
		if kin.net.Rebuilds() == before {
			continue // cached snapshot: no drain, diffBuf is the last sample's
		}
		removed := make(map[uint64]bool)
		for _, d := range kin.net.diffBuf {
			if !d.Add {
				removed[edgeKey(d.U, d.V)] = true
			} else if removed[edgeKey(d.U, d.V)] {
				healed++
				break
			}
		}
	}
	if got, want := kin.net.Rebuilds(), ser.net.Rebuilds(); got != want {
		t.Errorf("snapshot sample counts diverge: kinetic %d, serial %d", got, want)
	}
	return kin, healed
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
	if st.RouteFullResets != 0 {
		t.Errorf("kinetic mode performed %d wholesale route resets", st.RouteFullResets)
	}
}

// TestKineticMatchesFullRebuildSparseSampling reads snapshots at sparse,
// irregular times with churn on. Nothing advances the plane between
// reads, so at each one rebins are overdue by several skin widths (a
// 20 m/s node covers five skins in 30 s), every certificate of the gap
// is verified at once, and dropPair runs against stale anchors — the
// in-drain drop and re-discovery the header of kinetic.go argues heals.
// Snapshots must still equal the full rebuild's.
func TestKineticMatchesFullRebuildSparseSampling(t *testing.T) {
	const n = 140
	gaps := []time.Duration{
		30 * time.Second, 47 * time.Second, 250 * time.Millisecond, 61 * time.Second,
		33 * time.Second, time.Second, 90 * time.Second, 38500 * time.Millisecond,
		3 * time.Millisecond, 52 * time.Second, 31 * time.Second, 125 * time.Second,
	}
	for _, seed := range []int64{11, 12} {
		var samples []time.Duration
		var at time.Duration
		for _, g := range gaps {
			at += g
			samples = append(samples, at)
		}
		kin, healed := matchFullRebuild(t, n, seed, samples, waypoints(2000))
		st := kin.net.TopologyStats()
		if st.FullRebuilds != 1 || st.RouteFullResets != 0 {
			t.Errorf("seed %d: %d full rebuilds, %d route resets; want 1 and 0", seed, st.FullRebuilds, st.RouteFullResets)
		}
		if healed == 0 {
			t.Errorf("seed %d: no sample dropped and re-discovered a live link inside its drain — the gaps are too short to run that path", seed)
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

func convergingField(t *testing.T, k *sim.Kernel, n int) KineticSource {
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

func (c *converging) SegmentAt(i int, t time.Duration) mobility.Segment {
	if t >= c.arrive[i] {
		return mobility.Segment{End: math.MaxInt64 / 2}
	}
	secs := c.arrive[i].Seconds()
	return mobility.Segment{
		Speed: c.from[i].Dist(c.to[i]) / secs,
		Vel:   c.to[i].Sub(c.from[i]).Scale(1 / secs),
		End:   c.arrive[i],
	}
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
	first := newTopoHarnessOn(t, n, 11, true, samples[0], convergingField)
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

// TestKineticHeapStaysCompact pins the dead-certificate bound: a dropped
// pair's certificate waits in the heap until it falls due, and the heap
// compacts once those reach the live checks, so over a long mobile run
// the heap never holds more than twice the live checks (one certificate
// per tracked pair, one rebin per node).
func TestKineticHeapStaysCompact(t *testing.T) {
	const n = 300
	const horizon = 20 * time.Minute
	h := newTopoHarnessOn(t, n, 3, true, horizon, waypoints(3000))
	worst, dead := 0.0, 0
	for at := time.Second; at <= horizon; at += time.Second {
		h.k.RunUntil(at)
		h.net.Graph()
		kn := h.net.kin
		entries := 0
		for u := range n {
			entries += len(kn.tracked[u])
		}
		live := entries/2 + n
		stale := 0
		for _, it := range kn.heap {
			if it.id >= 0 && kn.pairs[it.id].gen != it.gen {
				stale++
			}
		}
		if stale != kn.dead || len(kn.heap)-stale != live {
			t.Fatalf("t=%v: heap of %d holds %d stale entries (counted %d) and %d live for %d live checks",
				at, len(kn.heap), stale, kn.dead, len(kn.heap)-stale, live)
		}
		if ratio := float64(len(kn.heap)) / float64(live); ratio > worst {
			worst = ratio
		}
		dead = max(dead, kn.dead)
		if len(kn.heap) > 2*live+1 {
			t.Fatalf("t=%v: heap holds %d entries for %d live checks", at, len(kn.heap), live)
		}
	}
	if dead == 0 {
		t.Fatal("no dropped pair left a certificate behind; the run does not exercise compaction")
	}
	t.Logf("worst heap/live ratio %.2f, most dead entries at a sample %d", worst, dead)
}

// TestKineticSteadyStateAllocationBudget pins the kinetic plane's steady
// state on a 2 000-node random-waypoint run at Table 1 density: after a
// two-minute warm-up, a sample allocates almost nothing — the rows, the
// pair slab, the heap and the cell bins were carved with slack at init,
// and what still allocates is a row outgrowing it or a node entering a
// cell init never saw. Measured (go1.24, linux/amd64): 0.27 mallocs per
// sample, against 2.63 while every row grew one append at a time. The
// budget is the measurement + 20 %.
func TestKineticSteadyStateAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000-node kinetic run skipped in -short mode")
	}
	const n = 2000
	const budget = 1.2 * 0.27
	const warm, window = 2 * time.Minute, 2 * time.Minute
	h := newTopoHarnessOn(t, n, 1, true, warm+window, waypoints(1500*math.Sqrt(n/50.0)))
	at := time.Duration(0)
	for at < warm {
		at += 250 * time.Millisecond
		h.k.RunUntil(at)
		h.net.Graph()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	samples0 := h.net.TopologyStats().KineticSamples
	for at < warm+window {
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
	t.Logf("%.2f mallocs per kinetic sample (%d samples)", per, samples)
	if per > budget {
		t.Errorf("%.2f mallocs per kinetic sample in the steady state; budget %.2f", per, budget)
	}
}

// TestKineticDiffParity checks the kinetic plane's internal contract
// directly: at every incremental sample, the emitted CSR edge diffs must
// contain every true edge change between consecutive snapshots (repair
// exactness tolerates superset diffs but not missing ones), and every
// route table the cache answers from must agree with a fresh BFS over the
// same CSR.
func TestKineticDiffParity(t *testing.T) {
	const (
		n       = 140
		horizon = 30 * time.Second
		tick    = 250 * time.Millisecond
	)
	h := newTopoHarness(t, n, 11, true, horizon)

	edgeSet := func(g *radio.Graph) map[uint64]bool {
		set := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i) {
				if i < j {
					set[uint64(uint32(i))<<32|uint64(uint32(j))] = true
				}
			}
		}
		return set
	}

	var prev map[uint64]bool
	for at := tick; at <= horizon; at += tick {
		h.k.RunUntil(at)
		before := h.net.Rebuilds()
		g := h.net.Graph()
		if h.net.Rebuilds() == before {
			continue // cached snapshot: no sample, no diffs
		}
		next := edgeSet(g)
		if prev != nil {
			emitted := make(map[uint64]bool)
			for _, d := range h.net.diffBuf {
				u, v := d.U, d.V
				if u > v {
					u, v = v, u
				}
				emitted[uint64(uint32(u))<<32|uint64(uint32(v))] = d.Add
			}
			check := func(k uint64, add bool) {
				if got, ok := emitted[k]; !ok || got != add {
					t.Fatalf("t=%v: true edge change (%d,%d,add=%v) missing from kinetic diffs (emitted=%v add=%v)",
						at, int32(k>>32), int32(uint32(k)), add, ok, got)
				}
			}
			for k := range next {
				if !prev[k] {
					check(k, true)
				}
			}
			for k := range prev {
				if !next[k] {
					check(k, false)
				}
			}
			for dst := 0; dst < n; dst++ {
				ref := g.HopsFrom(dst)
				for src := 0; src < n; src++ {
					if src == dst || !g.Up(src) || !g.Up(dst) {
						continue
					}
					if got := g.Hops(src, dst); got != ref[src] {
						t.Fatalf("t=%v: dst=%d src=%d: cached hops %d, fresh BFS %d", at, dst, src, got, ref[src])
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
	h := newTopoHarness(t, n, 5, true, 20*time.Second)
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

// runKineticScenario mirrors runSeededScenario (determinism_test.go) with
// the kinetic plane toggled: full protocol traffic over a mobile,
// churning network. Any behavioural leak in the kinetic plane shows up as
// diverging deliveries.
func runKineticScenario(t *testing.T, kinetic bool) scenarioOutcome {
	t.Helper()
	const n = 24
	k := sim.NewKernel(sim.WithSeed(7), sim.WithHorizon(2*time.Minute))
	terrain, err := geo.NewTerrain(1500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	field, err := mobility.NewField(mobility.Config{
		Terrain:  terrain,
		MinSpeed: 1,
		MaxSpeed: 15,
		Pause:    2 * time.Second,
	}, n, func(i int) *rand.Rand { return k.Stream(fmt.Sprintf("mobility.%d", i)) })
	if err != nil {
		t.Fatal(err)
	}
	cp, err := churn.NewProcess(churn.Config{
		MeanUp:   30 * time.Second,
		MeanDown: 5 * time.Second,
	}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Kinetic = kinetic
	traffic := stats.NewTraffic()
	net, err := New(cfg, k, field, cp, nil, traffic)
	if err != nil {
		t.Fatal(err)
	}
	var got []delivery
	for i := 0; i < n; i++ {
		if err := net.SetReceiver(i, func(_ *sim.Kernel, node int, msg protocol.Message, meta Meta) {
			got = append(got, delivery{node: node, msg: msg, meta: meta})
		}); err != nil {
			t.Fatal(err)
		}
	}
	wl := k.Stream("workload")
	seq := uint64(0)
	if _, err := k.Every(500*time.Millisecond, "test.unicast", func(kk *sim.Kernel) {
		seq++
		src, dst := wl.Intn(n), wl.Intn(n)
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1, Origin: src, Seq: seq}
		if err := net.Unicast(src, dst, msg); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Every(3*time.Second, "test.flood", func(kk *sim.Kernel) {
		seq++
		origin := wl.Intn(n)
		msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 2, Version: 2, Origin: origin, Seq: seq}
		if err := net.Flood(origin, 4, msg); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return scenarioOutcome{
		deliveries: got,
		traffic:    traffic.Snapshot(),
		events:     k.EventsFired(),
		rebuilds:   net.Rebuilds(),
	}
}

// TestKineticIsBehaviourallyInvisible is the end-to-end byte-identity
// gate for the kinetic plane: the same seeded protocol scenario with
// kinetic topology maintenance on and off must produce identical delivery
// sequences (order, hops, timestamps, flood ids), traffic ledgers,
// snapshot sample counts and kernel event counts — the plane advances
// inside Graph() and schedules nothing of its own.
func TestKineticIsBehaviourallyInvisible(t *testing.T) {
	on := runKineticScenario(t, true)
	off := runKineticScenario(t, false)
	if len(on.deliveries) == 0 {
		t.Fatal("scenario produced no deliveries; workload broken")
	}
	if on.rebuilds != off.rebuilds {
		t.Errorf("snapshot samples: kinetic %d, serial %d", on.rebuilds, off.rebuilds)
	}
	if on.events != off.events {
		t.Errorf("kernel events fired: kinetic %d, serial %d", on.events, off.events)
	}
	if !reflect.DeepEqual(on.traffic, off.traffic) {
		t.Errorf("traffic ledgers diverge:\nkinetic: %+v\nserial:  %+v", on.traffic, off.traffic)
	}
	if len(on.deliveries) != len(off.deliveries) {
		t.Fatalf("delivery counts: kinetic %d, serial %d", len(on.deliveries), len(off.deliveries))
	}
	for i := range on.deliveries {
		if !reflect.DeepEqual(on.deliveries[i], off.deliveries[i]) {
			t.Fatalf("delivery %d diverges:\nkinetic: %+v\nserial:  %+v",
				i, on.deliveries[i], off.deliveries[i])
		}
	}
}

// TestKineticHeapOrderAndAllocs pins the certificate heap: pop order is
// (due, id, gen) whatever order the entries went in, and a push/pop pair
// on a warm heap allocates nothing.
func TestKineticHeapOrderAndAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]kinItem, 500)
	for i := range items {
		// Few distinct due times and ids, so ties on each key are common.
		items[i] = kinItem{due: time.Duration(rng.Intn(20)), id: int32(rng.Intn(40)) - 20, gen: uint32(i)}
	}
	var want []kinItem
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var h kinHeap
		for _, it := range items {
			h.push(it)
		}
		got := make([]kinItem, 0, len(items))
		for len(h) > 0 {
			got = append(got, h.pop())
		}
		for i := 1; i < len(got); i++ {
			if !got[i-1].before(got[i]) {
				t.Fatalf("round %d: pop %d %+v not before pop %d %+v", round, i-1, got[i-1], i, got[i])
			}
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("round %d: pop order depends on push order", round)
		}
	}

	var h kinHeap
	for _, it := range items {
		h.push(it)
	}
	due := time.Duration(0)
	if avg := testing.AllocsPerRun(1000, func() {
		due += 7
		h.push(kinItem{due: due % 20, id: 1, gen: uint32(due)})
		h.pop()
	}); avg != 0 {
		t.Errorf("push/pop pair allocates %.2f objects, want 0", avg)
	}
}
