package faults

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// pair pins two nodes 200 m apart: one hop, always in range.
type pair struct{}

func (pair) Len() int { return 2 }

func (pair) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	return append(dst[:0], geo.Point{}, geo.Point{X: 200})
}

// lostRepair runs the heal check over one relay that heard exactly one
// INVALIDATION announcing a version it missed, whose GET_NEW was dropped,
// and which no later flood reached. Node 0 owns item 0; node 1 relays it.
// It returns the audit report and the relay's debt at check time.
func lostRepair(t *testing.T, mutant core.Mutant) (Report, core.RepairDebt) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	chn, err := churn.NewProcess(churn.Config{Disabled: true}, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, pair{}, chn, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	var heardAt time.Duration
	net.SetPerturber(func(nd int, msg protocol.Message, meta netsim.Meta) netsim.Perturbation {
		switch {
		case msg.Kind == protocol.KindUpdate, msg.Kind == protocol.KindGetNew:
			return netsim.Perturbation{Drop: true}
		case msg.Kind == protocol.KindInvalidation && nd == 1:
			if heardAt > 0 {
				return netsim.Perturbation{Drop: true}
			}
			heardAt = meta.At
		}
		return netsim.Perturbation{}
	})
	reg, err := data.NewRegistry(2)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*cache.Store, 2)
	for i := range stores {
		if stores[i], err = cache.NewStore(4); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := consistency.NewAuditor(reg, 4*time.Minute, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := node.NewChassis(net, reg, stores, stats.NewLatency(), cons)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DemoteAfter = 1000 // an idle relay must not step down on coefficients
	cfg.Mutant = mutant
	eng, err := core.New(cfg, ch, core.Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(k); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Master(0)
	eng.Warm(k, 1, m.Current())
	if err := eng.SeedRelay(k, 1, 0); err != nil {
		t.Fatal(err)
	}
	eng.OnUpdate(k, 0) // v1: its UPDATE push is dropped, so 1 holds v0

	for heardAt == 0 && k.Now() < 10*time.Minute {
		k.RunUntil(k.Now() + time.Second)
	}
	if heardAt == 0 {
		t.Fatal("the relay never heard the INVALIDATION")
	}
	// Check more than two TTN cycles after the evidence (every resend gate
	// long expired), before the 3·TTN drift bound resigns the relay.
	k.RunUntil(heardAt + 5*time.Minute)
	debts := eng.RepairDebts(0)
	if len(debts) != 1 || debts[0].Node != 1 || debts[0].Held >= debts[0].Heard {
		t.Fatalf("scenario did not leave relay 1 in debt: %+v", debts)
	}
	a, err := NewAuditor(AuditorConfig{SweepEvery: time.Minute, RepairWindow: 6 * time.Minute, TTN: cfg.TTN},
		reg, stores, chn, eng, cons)
	if err != nil {
		t.Fatal(err)
	}
	a.checkHeal(k, k.Now())
	return a.Finish(), debts[0]
}

// A relay whose one GET_NEW was lost and which heard no INVALIDATION
// afterwards never had a retry trigger: its debt is not unserviced, however
// old it is.
func TestHealCheckSparesRelayWithoutRetryTrigger(t *testing.T) {
	rep, d := lostRepair(t, core.MutantNone)
	if d.RetryAt <= d.HeardAt {
		t.Fatalf("GET_NEW not outstanding past the evidence: %+v", d)
	}
	if rep.HealViolations != 0 {
		t.Fatalf("relay with no retry trigger flagged: %s", rep)
	}
}

// The same relay with repair disabled heard its trigger and sent nothing:
// that debt is unserviced and must be flagged.
func TestHealCheckFlagsUnusedTrigger(t *testing.T) {
	rep, d := lostRepair(t, core.MutantNoRepair)
	if d.RetryAt != 0 {
		t.Fatalf("repair disabled but a GET_NEW is outstanding: %+v", d)
	}
	if rep.HealViolations != 1 {
		t.Fatalf("unused repair trigger not flagged: %s", rep)
	}
}
