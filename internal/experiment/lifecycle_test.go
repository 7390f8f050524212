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
// for an hour of queries and updates, then steps the kernel one instant
// at a time with none. Whatever resolves a query releases its records and
// cancels their pending timeouts, so at the first instant where every
// issued query is answered or failed, every per-query record — the
// query, the fetch, RPCC's poll round, push's waiting and refetch
// records, pull's round — must be back in its pool, and none may have
// been given back twice; no record waits for a timeout to fire. The RPCC
// strategies run again under the demonstration campaign, whose 1 %
// duplication and 5 ms jitter make late and duplicate replies (a campaign
// is admitted for RPCC only).
func TestPerQueryRecordsReturnToTheirPools(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-long runs skipped in -short mode")
	}
	// Past the cut, every query resolves within the longest timeout
	// (push's 5 minute patience); the margin bounds the stepping.
	const horizon, margin = time.Hour, 10 * time.Minute
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
		cfg.SimTime = horizon + margin
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
		w.RunUntil(horizon)
		ch := w.Chassis
		for ch.Issued() != ch.Answered()+ch.Failed() {
			next, ok := w.K.NextEventAt()
			if !ok || next > cfg.SimTime {
				break
			}
			w.RunUntil(next)
		}
		if ch.Issued() == 0 || ch.Issued() != ch.Answered()+ch.Failed() {
			t.Fatalf("%s: issued %d, answered %d, failed %d at %v: want every query resolved",
				r.name, ch.Issued(), ch.Answered(), ch.Failed(), w.K.Now())
		}
		audits := ch.PoolAudits()
		if s, ok := w.Strategy.(quietAfter).Strategy.(interface{ PoolAudits() []sim.PoolAudit }); ok {
			audits = append(audits, s.PoolAudits()...)
		} else {
			t.Fatalf("%s: strategy reports no per-query pools", r.name)
		}
		for _, a := range audits {
			if a.Live != 0 || a.Doubled {
				t.Errorf("%s: %s pool has %d live records (doubled %v) at %v, the instant the last query resolved; want 0 and none Put twice",
					r.name, a.Name, a.Live, a.Doubled, w.K.Now())
			}
		}
	}
}
