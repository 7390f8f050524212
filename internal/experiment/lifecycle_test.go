package experiment

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/sim"
)

// quietAfter is a strategy that stops taking queries and updates at a
// cut-off, so a run can drain: IRs, invalidations and the timers of the
// work already begun go on, and no update starts a new refetch.
type quietAfter struct {
	Strategy
	cut time.Duration
}

func (q quietAfter) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	if k.Now() < q.cut {
		q.Strategy.OnQuery(k, host, item, level)
	}
}

func (q quietAfter) OnUpdate(k *sim.Kernel, host int) {
	if k.Now() < q.cut {
		q.Strategy.OnUpdate(k, host)
	}
}

// TestPerQueryRecordsReturnToTheirPools runs every strategy at 50 nodes
// for an hour of queries and updates, then drains 30 minutes with none:
// past the longest timeout (push's 5 minute patience) and the IR each
// parked query waits for. A query whose patience ran out stays in its
// parked list until its host next hears the item's IR; under churn the
// last of them heard it 19 minutes after the cut (seed 1). Every
// per-query record — the query, the fetch, RPCC's poll round, push's
// waiting and refetch records, pull's timeout — must then be back in its
// pool, and none may have been given back twice. The RPCC strategies run
// again under the demonstration campaign, whose 1 % duplication and 5 ms
// jitter make late and duplicate replies (a campaign is admitted for RPCC
// only).
func TestPerQueryRecordsReturnToTheirPools(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-long runs skipped in -short mode")
	}
	const horizon, drain = time.Hour, 30 * time.Minute
	type run struct {
		name string
		cfg  Config
	}
	var runs []run
	for _, s := range AllPaperStrategies() {
		runs = append(runs, run{"clean " + string(s), DefaultConfig(s, 1)})
	}
	for _, s := range []StrategyKind{StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY} {
		cfg := DefaultConfig(s, 1)
		cfg.Faults = faults.Demo(cfg.NPeers)
		runs = append(runs, run{"demo " + string(s), cfg})
	}
	for _, r := range runs {
		cfg := r.cfg
		cfg.SimTime = horizon + drain
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Strategy = quietAfter{w.Strategy, horizon}
		if err := w.startScenario(); err != nil {
			t.Fatal(err)
		}
		if !cfg.Faults.IsZero() {
			if err := w.installFaults(); err != nil {
				t.Fatal(err)
			}
		}
		w.RunUntil(cfg.SimTime)
		ch := w.Chassis
		if ch.Issued() == 0 || ch.Issued() != ch.Answered()+ch.Failed() {
			t.Errorf("%s: issued %d, answered %d, failed %d: want every query resolved",
				r.name, ch.Issued(), ch.Answered(), ch.Failed())
		}
		audits := ch.PoolAudits()
		if s, ok := w.Strategy.(quietAfter).Strategy.(interface{ PoolAudits() []sim.PoolAudit }); ok {
			audits = append(audits, s.PoolAudits()...)
		} else {
			t.Fatalf("%s: strategy reports no per-query pools", r.name)
		}
		for _, a := range audits {
			if a.Live != 0 || a.Doubled {
				t.Errorf("%s: %s pool has %d live records (doubled %v) after the drain; want 0 and none Put twice",
					r.name, a.Name, a.Live, a.Doubled)
			}
		}
	}
}
