package experiment

import (
	"runtime"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// steadyMallocsPer1kEvents runs cfg's scenario, as Run starts it (fault
// campaign included), to
// warm and returns the heap allocations per 1 000 kernel events over the
// following window, and the event count behind it.
func steadyMallocsPer1kEvents(t *testing.T, cfg Config, warm, window time.Duration) (float64, uint64) {
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
	return 1000 * float64(after.Mallocs-before.Mallocs) / float64(events), events
}

// TestSteadyStateAllocationBudget pins the protocol steady state: for each
// of the six strategies, at Table 1's intervals and at the update-heavy
// ones of the paper50-write benchmark (I_Update 10 s, I_Query 2 min), the
// 10 minutes after a one-hour warm-up must stay within the allocation
// budget per 1 000 kernel events. Per event, not per answer, so the bound
// survives answer rates moving. What remains is amortised growth: record
// slabs, payload arena chunks and commit histories, and the relays' poll
// queues. Measured (go1.24, linux/amd64): 1.2–8.8 per 1 000 events over
// the twelve runs, against 136–616 while queries, fetches, poll rounds and
// timeouts were one heap object or closure each and every commit built
// its payload string. The budget is the largest measurement + 20 %.
func TestSteadyStateAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state window skipped in -short mode")
	}
	const budget = 1.2 * 8.8
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
			per1k, events := steadyMallocsPer1kEvents(t, cfg, warm, window)
			t.Logf("%s %s: %.2f mallocs per 1 000 events (%d events)", rg.name, s, per1k, events)
			if per1k > budget {
				t.Errorf("%s %s: %.2f mallocs per 1 000 kernel events in the steady state; budget %.2f",
					rg.name, s, per1k, budget)
			}
		}
	}
}

// TestSteadyStateAllocationBudgetUnderFaults holds the RPCC strategies to
// the same budget under the demonstration campaign, whose 5 ms jitter
// delays every unicast final hop and whose 1 % duplication doubles some:
// a delayed delivery is a pooled record, as an undelayed hop is.
// Measured (go1.24, linux/amd64): 4.8–7.9 per 1 000 events, against
// 1 060–1 740 while each delayed delivery scheduled a closure (and 300–620
// more while each audit sweep copied every store's item list).
func TestSteadyStateAllocationBudgetUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state window skipped in -short mode")
	}
	const budget = 1.2 * 8.8
	const warm, window = time.Hour, 10 * time.Minute
	for _, s := range []StrategyKind{StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY} {
		cfg := DefaultConfig(s, 1)
		cfg.Faults = faults.Demo(cfg.NPeers)
		per1k, events := steadyMallocsPer1kEvents(t, cfg, warm, window)
		t.Logf("demo %s: %.2f mallocs per 1 000 events (%d events)", s, per1k, events)
		if per1k > budget {
			t.Errorf("demo %s: %.2f mallocs per 1 000 kernel events in the steady state; budget %.2f",
				s, per1k, budget)
		}
	}
}
