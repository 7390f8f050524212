package experiment

import (
	"runtime"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// steadyPer1kEvents is a steady-state window's allocation: heap
// allocations and bytes allocated per 1 000 kernel events, and the event
// count behind them.
type steadyPer1kEvents struct {
	mallocs, bytes float64
	events         uint64
}

// steadyAllocs runs cfg's scenario, as Run starts it (fault campaign
// included), to warm and measures the allocation over the following
// window.
func steadyAllocs(t *testing.T, cfg Config, warm, window time.Duration) steadyPer1kEvents {
	t.Helper()
	cfg.SimTime = warm + window
	w, err := Build(cfg, WithHub(telemetry.NewHub(telemetry.LevelMetrics)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.startScenario(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Faults.IsZero() {
		if err := w.installFaults(); err != nil {
			t.Fatal(err)
		}
	}
	k := w.K
	k.RunUntil(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := k.EventsFired()
	k.RunUntil(warm + window)
	runtime.ReadMemStats(&after)
	events = k.EventsFired() - events
	if events == 0 {
		t.Fatal("no event fired in the window")
	}
	return steadyPer1kEvents{
		mallocs: 1000 * float64(after.Mallocs-before.Mallocs) / float64(events),
		bytes:   1000 * float64(after.TotalAlloc-before.TotalAlloc) / float64(events),
		events:  events,
	}
}

// TestSteadyStateAllocationBudget pins the protocol steady state: for each
// of the six strategies, at Table 1's intervals and at the update-heavy
// ones of the paper50-write benchmark (I_Update 10 s, I_Query 2 min), the
// 10 minutes after a one-hour warm-up must stay within the allocation
// budgets per 1 000 kernel events, in mallocs and in bytes. Per event, not
// per answer, so the bounds survive answer rates moving. No per-query
// record is allocated any more: each goes back to its pool at its last
// holder, and the relays' queued polls come from a pool too. What remains
// is amortised growth: record pool blocks, payload arena chunks and the
// history slab's chunks.
// Measured (go1.24, linux/amd64) over the twelve runs, newest first:
//   - 0.04–1.84 mallocs and 171–4 675 B per 1 000 events with commit
//     histories in doubling segments and pooled relay poll queues (the
//     largest of both is pull at I_Update 10 s, whose ≈ 3 000 commits in
//     the window fill payload arena chunks; table1 pull 0.79 → 0.04,
//     push 1.61 → 0.23 and rpcc-wc 2.77 → 0.78 mallocs);
//   - 0.77–6.2 mallocs and 393–4 593 B per 1 000 events with per-query
//     records recycled;
//   - 1.2–8.8 mallocs and 5 165–21 937 B while every query, fetch, poll
//     round and timeout took a fresh record from a pool never Put back
//     to;
//   - 136–616 mallocs while each was one heap object or closure and every
//     commit built its payload string.
//
// Each budget is the largest latest measurement + 20 % and only ever
// tightens, so the byte budget stays where 4 593 B put it.
func TestSteadyStateAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state window skipped in -short mode")
	}
	const budget, byteBudget = 1.2 * 1.84, 1.2 * 4593
	const warm, window = time.Hour, 10 * time.Minute
	regimes := []struct {
		name string
		tune func(*Config)
	}{
		{"table1", func(*Config) {}},
		{"write", func(c *Config) {
			c.UpdateInterval = 10 * time.Second
			c.QueryInterval = 2 * time.Minute
		}},
	}
	for _, rg := range regimes {
		for _, s := range AllPaperStrategies() {
			cfg := DefaultConfig(s, 1)
			rg.tune(&cfg)
			a := steadyAllocs(t, cfg, warm, window)
			t.Logf("%s %s: %.2f mallocs and %.0f B per 1 000 events (%d events)", rg.name, s, a.mallocs, a.bytes, a.events)
			if a.mallocs > budget || a.bytes > byteBudget {
				t.Errorf("%s %s: %.2f mallocs and %.0f B per 1 000 kernel events in the steady state; budget %.2f and %.0f",
					rg.name, s, a.mallocs, a.bytes, budget, byteBudget)
			}
		}
	}
}

// TestSteadyStateAllocationBudgetUnderFaults holds the RPCC strategies to
// budgets of the same kind under the demonstration campaign, whose 5 ms
// jitter delays every unicast final hop and whose 1 % duplication doubles
// some: a delayed delivery is a pooled record, as an undelayed hop is,
// and a late or duplicate reply finds no record to keep alive. Measured
// (go1.24, linux/amd64), newest first:
//   - 2.5–5.35 mallocs and 1 017–1 645 B per 1 000 events with per-query
//     records recycled;
//   - 4.8–7.0 mallocs and 9 867–16 407 B while no per-query record went
//     back to its pool;
//   - 1 060–1 740 mallocs while each delayed delivery scheduled a closure
//     (and 300–620 more while each audit sweep copied every store's item
//     list).
//
// Each budget is the largest latest measurement + 20 % and only ever
// tightens.
func TestSteadyStateAllocationBudgetUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state window skipped in -short mode")
	}
	const budget, byteBudget = 1.2 * 5.35, 1.2 * 1645
	const warm, window = time.Hour, 10 * time.Minute
	for _, s := range []StrategyKind{StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY} {
		cfg := DefaultConfig(s, 1)
		cfg.Faults = faults.Demo(cfg.NPeers)
		a := steadyAllocs(t, cfg, warm, window)
		t.Logf("demo %s: %.2f mallocs and %.0f B per 1 000 events (%d events)", s, a.mallocs, a.bytes, a.events)
		if a.mallocs > budget || a.bytes > byteBudget {
			t.Errorf("demo %s: %.2f mallocs and %.0f B per 1 000 kernel events in the steady state; budget %.2f and %.0f",
				s, a.mallocs, a.bytes, budget, byteBudget)
		}
	}
}
