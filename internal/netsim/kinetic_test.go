package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
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
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(seed), sim.WithHorizon(horizon))
	terrain, err := geo.NewTerrain(2000, 2000)
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
	cp, err := churn.NewProcess(churn.Config{
		MeanUp:   20 * time.Second,
		MeanDown: 4 * time.Second,
	}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Kinetic = kinetic
	net, err := New(cfg, k, field, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	return &topoHarness{k: k, net: net}
}

// TestKineticMatchesFullRebuild is the adjacency-equivalence gate: two
// identically seeded mobile+churn networks — one maintaining topology
// kinetically, one doing full rebuilds — are advanced in lockstep and
// must produce byte-identical CSR snapshots, hop distances and next-hop
// choices at every sample, with the kinetic side's route tables surviving
// via incremental repair rather than resets.
func TestKineticMatchesFullRebuild(t *testing.T) {
	const (
		n       = 140 // above the small-build cutoff: exercises the grid path too
		horizon = 45 * time.Second
		tick    = 250 * time.Millisecond
	)
	kin := newTopoHarness(t, n, 11, true, horizon)
	ser := newTopoHarness(t, n, 11, false, horizon)

	for at := tick; at <= horizon; at += tick {
		kin.k.RunUntil(at)
		ser.k.RunUntil(at)
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
	}

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
	if got, want := kin.net.Rebuilds(), ser.net.Rebuilds(); got != want {
		t.Errorf("snapshot sample counts diverge: kinetic %d, serial %d", got, want)
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
		rebuilds:   net.Rebuilds(),
	}
}

// TestKineticIsBehaviourallyInvisible is the end-to-end byte-identity
// gate for the kinetic plane: the same seeded protocol scenario with
// kinetic topology maintenance on and off must produce identical delivery
// sequences (order, hops, timestamps, flood ids), traffic ledgers, and
// snapshot sample counts. Kernel event counts are NOT compared — the
// kinetic driver legitimately adds its own events — which is exactly why
// delivery-sequence identity is the meaningful check.
func TestKineticIsBehaviourallyInvisible(t *testing.T) {
	on := runKineticScenario(t, true)
	off := runKineticScenario(t, false)
	if len(on.deliveries) == 0 {
		t.Fatal("scenario produced no deliveries; workload broken")
	}
	if on.rebuilds != off.rebuilds {
		t.Errorf("snapshot samples: kinetic %d, serial %d", on.rebuilds, off.rebuilds)
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
