package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestLargeScaleRun pushes the simulator well past the paper's 50 peers
// to check that nothing degrades structurally at 4x scale (the paper's
// GloMoSim was built for "large-scale wireless networks"; our substrate
// should not be the bottleneck of any follow-up study).
func TestLargeScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale run skipped in -short mode")
	}
	cfg := DefaultConfig(StrategyRPCCHY, 3)
	cfg.NPeers = 200
	cfg.AreaWidth, cfg.AreaHeight = 3000, 3000 // same density as Table 1
	cfg.SimTime = 10 * time.Minute
	start := time.Now()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("200 peers x 10min simulated in %v wall: %s", time.Since(start).Round(time.Millisecond), r)
	if r.Answered == 0 {
		t.Fatal("no queries answered at scale")
	}
	if r.TornAnswers != 0 || r.FutureAnswers != 0 {
		t.Fatal("integrity violations at scale")
	}
	if r.RelayCount == 0 {
		t.Error("no relays formed at scale")
	}
}

// scaleBoundsConfig is an n-peer RPCC-SC scenario as rpcc scale runs it:
// Table 1 density and the scale resource bounds (route tables capped,
// churn folded in lazily).
func scaleBoundsConfig(n int, seed int64) Config {
	cfg := DefaultConfig(StrategyRPCCSC, seed)
	cfg.NPeers = n
	cfg.RouteTableCap = 256
	cfg.LazyChurnRefresh = true
	side := 1500 * math.Sqrt(float64(n)/50)
	cfg.AreaWidth, cfg.AreaHeight = side, side
	return cfg
}

// liveHeap is the heap still in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBytesPerNodeBudget pins what one world holds per node once it is
// running: a 10 000-peer scenario under the scale bounds, built, started
// and run, measured as the live heap after a collection at two
// checkpoints. At 1 simulated second the world is nearly what set-up left;
// by 3 minutes the route cache has filled to its 256-table cap, which set-up
// never shows. A scale run keeps one region per worker in memory, so this
// is what its peak is made of. Measured (go1.24, linux/amd64), newest
// first:
//   - 3 038 B per node at 1 s and 3 656 at 3 min with 48-byte masters and
//     commit histories carved from the registry's slab only once an item
//     is updated (a 72-byte master, an 8-byte history slot per item and
//     append-grown histories before);
//   - 3 069 B per node at 1 s and 3 671 at 3 min with the run-wide policy
//     and hop hint held once, not copied into each 96-byte store;
//   - 3 096 at 1 s and 3 692 at 3 min with two-byte route
//     tables, 40-byte pointer-free item states and 64-byte cache entries;
//   - 3 907 at 1 s and 5 016 at 3 min with four-byte tables, 96-byte item
//     states and 80-byte entries;
//   - 4 262 at 1 s while the kinetic plane kept a certificate heap and a
//     28-byte pair record.
//
// Each budget is the latest measurement + 10 % and only ever tightens.
func TestBytesPerNodeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000-peer world skipped in -short mode")
	}
	const n = 10_000
	const tableCap = 256
	cfg := scaleBoundsConfig(n, 1)
	if cfg.RouteTableCap != tableCap {
		t.Fatalf("scale bounds cap route tables at %d, this test assumes %d", cfg.RouteTableCap, tableCap)
	}
	cfg.SimTime = 4 * time.Minute
	base := liveHeap()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.startScenario(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at     time.Duration
		budget float64
	}{
		{time.Second, 1.10 * 3038},
		{3 * time.Minute, 1.10 * 3656},
	} {
		w.RunUntil(c.at)
		perNode := float64(liveHeap()-base) / n
		tables := w.Net.Graph().RouteTables()
		t.Logf("at %v: live heap %.0f B per node, %d route tables", c.at, perNode, tables)
		if perNode > c.budget {
			t.Errorf("at %v a running world holds %.0f B per node; budget %.0f", c.at, perNode, c.budget)
		}
		if c.at >= 3*time.Minute && tables != tableCap {
			t.Errorf("at %v the route cache holds %d tables, want its cap %d", c.at, tables, tableCap)
		}
	}
	runtime.KeepAlive(w)
}

// TestSetupAllocationBudget pins what assembling a scale run costs per
// node: a 2 000-node scenario at Table 1 density with the scale resource
// bounds, run for 1 ms so set-up is nearly all of it. Measured (go1.24,
// linux/amd64), newest first:
//   - 0.14 mallocs and 2 639 B per node with telemetry series drawn from
//     registry blocks and found without a key string (every registration
//     was a label copy, a signature and a record of its own), and every
//     kinetic cell given a carved bin, empty ones included;
//   - 0.58 mallocs and 2 603 B per node with 48-byte masters and no
//     commit history until an item's first update (0.67 and 2 638 with
//     72-byte masters and a slab of first history slots);
//   - 0.72 mallocs and 2 665 B per node with 40-byte item states and
//     64-byte cache entries;
//   - 0.73 mallocs and 3 410 B per node with the event queue sized once
//     for set-up's timers (it grew by doubling) and each host's warm
//     placement written in one pass;
//   - 0.82–0.83 mallocs and 3 802 B with every per-node record carved
//     from a per-world array: the mobility stream family
//     (sim.Kernel.Streams), the waypoints, the batteries, RPCC's tick and
//     the workload's demand records;
//   - 10.6 mallocs and 4 020 B with a stream name, a map entry, a
//     generator, a waypoint, a battery and four closures per node;
//   - 89.9 mallocs and 7 100 B with map-backed stores, a container/list
//     LRU and one heap object per item state.
//
// The malloc budget is the latest measurement + 20 %, the byte budget
// the latest + 5 %; both only ever tighten, so the byte budget stays
// where 2 603 B put it.
func TestSetupAllocationBudget(t *testing.T) {
	const n = 2000
	const mallocBudget, byteBudget = 1.2 * 0.14, 1.05 * 2603
	cfg := scaleBoundsConfig(n, 1)
	cfg.SimTime = time.Millisecond

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunScale(ScaleConfig{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("set-up: %.2f mallocs and %.0f B per node", mallocs, bytes)
	if mallocs > mallocBudget || bytes > byteBudget {
		t.Errorf("set-up allocates %.1f mallocs and %.0f B per node; budget %.1f and %.0f",
			mallocs, bytes, mallocBudget, byteBudget)
	}
}

// TestScaleRunAllocationBudget pins what a whole scale run allocates per
// answered query: RunScale on 10 000 peers under the scale bounds for 3
// simulated minutes, the leg of bench's scale10k workload — build, run,
// Finish and the region merge. Measured (go1.24, linux/amd64), newest
// first:
//   - 1.03 mallocs per answer with telemetry series keyed by value in
//     registry-owned chunks, route tables carved from doubling chunks, one
//     retained route-repair queue, and flood hearer lists, kinetic rows and
//     relay sets grown in row slabs;
//   - 6.74 while every registry lookup built a sorted label copy and a
//     signature string, each route table was its own allocation, repair
//     buckets regrew per level and those lists regrew by append.
//
// The budget is the latest measurement + 20 % and only ever tightens.
func TestScaleRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000-peer run skipped in -short mode")
	}
	const budget = 1.2 * 1.03
	cfg := scaleBoundsConfig(10_000, 1)
	cfg.SimTime = 3 * time.Minute
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunScale(ScaleConfig{Config: cfg})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answered == 0 {
		t.Fatal("no query answered")
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Answered)
	t.Logf("%.2f mallocs per answer (%d answers)", per, res.Answered)
	if per > budget {
		t.Errorf("a 10 000-peer 3-minute scale run makes %.2f mallocs per answer; budget %.2f", per, budget)
	}
}
