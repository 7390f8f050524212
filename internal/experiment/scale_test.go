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

// TestSetupAllocationBudget pins what assembling a scale run costs per
// node: a 2 000-node scenario at Table 1 density with the scale resource
// bounds, run for 1 ms so set-up is nearly all of it. Measured (go1.24,
// linux/amd64), newest first:
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
// the latest + 5 %; both only ever tighten.
func TestSetupAllocationBudget(t *testing.T) {
	const n = 2000
	const mallocBudget, byteBudget = 1.2 * 0.73, 1.05 * 3410
	cfg := DefaultConfig(StrategyRPCCSC, 1)
	cfg.NPeers = n
	cfg.SimTime = time.Millisecond
	cfg.RouteTableCap = 256
	cfg.LazyChurnRefresh = true
	side := 1500 * math.Sqrt(n/50.0)
	cfg.AreaWidth, cfg.AreaHeight = side, side

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
