package faults

import (
	"fmt"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/sim"
)

// maxDetails bounds the retained violation messages; the counts keep
// growing past it.
const maxDetails = 32

// AuditorConfig parameterises the invariant checks.
type AuditorConfig struct {
	// SweepEvery is the period of the monotonicity and bounded-retry
	// sweeps (invariants 2 and 4).
	SweepEvery time.Duration
	// RepairWindow is how long after a partition heal the relay tier has
	// to converge (invariant 3). Zero disables heal checks.
	RepairWindow time.Duration
	// TTN is the protocol's invalidation interval. A RepairWindow
	// shorter than TTN cannot guarantee any INVALIDATION fell inside it,
	// so such heal checks are recorded as skipped, not violated.
	TTN time.Duration
	// StrongStaleBudget is the tolerated stale-SC answer fraction for
	// invariant 1 (see Config.StrongStaleBudget). Zero means strict.
	StrongStaleBudget float64
}

// Validate reports configuration errors.
func (c AuditorConfig) Validate() error {
	if c.SweepEvery <= 0 {
		return fmt.Errorf("faults: non-positive audit sweep period %v", c.SweepEvery)
	}
	if c.RepairWindow < 0 {
		return fmt.Errorf("faults: negative repair window %v", c.RepairWindow)
	}
	if c.RepairWindow > 0 && c.TTN <= 0 {
		return fmt.Errorf("faults: heal checks need the protocol TTN")
	}
	if c.StrongStaleBudget < 0 || c.StrongStaleBudget > 1 {
		return fmt.Errorf("faults: strong-stale budget %g outside [0,1]", c.StrongStaleBudget)
	}
	return nil
}

// Auditor continuously asserts the consistency invariants during a chaos
// soak:
//
//  1. The stale-SC answer rate stays within StrongStaleBudget, and no
//     answer is ever torn or from the future — the consistency auditor's
//     verdict counts, read at Finish. (RPCC's strong level is TTR-window
//     approximate even fault-free, hence a budget rather than strictly
//     zero.)
//  2. The versions any node holds for an item are monotone within a
//     cache residency — swept periodically through consistency.Watermarks
//     with the copy's admission time as the epoch. Replacement churn and
//     crashes (which clear the store) legitimately break cross-residency
//     monotonicity: a node that evicted v1 may re-learn v0 from a stale
//     peer, and that is a new StoredAt. A regression with an unchanged
//     StoredAt can only be an in-place overwrite — a store bug.
//  3. Every partition heal is followed by relay-state convergence within
//     RepairWindow: at the deadline, no relay sits on unserviced repair
//     debt — it still holds a copy older than the version it heard
//     announced, and its last INVALIDATION arrived when a GET_NEW was due
//     (none outstanding, or the last one's resend gate expired). Repair
//     is trigger-driven, one GET_NEW shot per INVALIDATION heard, so a
//     relay whose send was lost and which no later flood reached has had
//     no trigger to retry on and is not flagged; neither are relays the
//     flood never reached at all (§4.5 is conditional on hearing one).
//  4. Repair retries are bounded: no item state ever exceeds the
//     engine's core.MaxRepairAttempts consecutive unanswered sends.
type Auditor struct {
	cfg    AuditorConfig
	reg    *data.Registry
	stores []*cache.Store
	chn    *churn.Process
	engine *core.Engine
	cons   *consistency.Auditor

	watermarks consistency.Watermarks
	rep        Report
	items      []data.ItemID // the sweep's reused store-scan buffer
}

// watermark is one node's last swept observation of an item. Its epoch
// is the copy's StoredAt: the store advances it only on admission and on
// strict version advance, never on a same-version refresh, so an
// unchanged StoredAt pins the comparison to one continuously-held copy.
type watermark = consistency.Mark

// NewAuditor wires the invariant checks. cons may be nil (invariant 1
// then reports zero); engine may be nil (invariants 3 and 4 are skipped,
// for non-RPCC strategies).
func NewAuditor(cfg AuditorConfig, reg *data.Registry, stores []*cache.Store, chn *churn.Process, engine *core.Engine, cons *consistency.Auditor) (*Auditor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil || chn == nil || len(stores) == 0 {
		return nil, fmt.Errorf("faults: auditor needs registry, churn and stores")
	}
	return &Auditor{
		cfg: cfg, reg: reg, stores: stores, chn: chn,
		engine: engine, cons: cons,
	}, nil
}

// Install schedules the periodic sweep and subscribes to the plane's
// heal events. Call before the kernel runs.
func (a *Auditor) Install(k *sim.Kernel, p *Plane) error {
	if _, err := k.Every(a.cfg.SweepEvery, "faults.audit.sweep", func(kk *sim.Kernel) {
		a.sweep(kk)
	}); err != nil {
		return err
	}
	if p != nil && a.cfg.RepairWindow > 0 && a.engine != nil {
		p.OnHeal(a.scheduleHealCheck)
	}
	return nil
}

// sweep runs invariants 2 and 4 over the current state.
func (a *Auditor) sweep(k *sim.Kernel) {
	a.rep.Sweeps++
	for nd, s := range a.stores {
		a.items = s.AppendItems(a.items[:0])
		for _, item := range a.items {
			cp, ok := s.Peek(item)
			if !ok {
				continue
			}
			storedAt, _ := s.StoredAt(item)
			if floor, regressed := a.watermarks.Observe(nd, item, cp.Version, int64(storedAt)); regressed {
				a.rep.MonotoneViolations++
				a.detail("monotone: node %d item %v regressed %d -> %d in place at %v",
					nd, item, floor, cp.Version, k.Now())
			}
		}
	}
	if a.engine != nil {
		maxGetNew, maxApply := a.engine.RepairScan()
		if maxGetNew > core.MaxRepairAttempts || maxApply > core.MaxRepairAttempts {
			a.rep.RetryViolations++
			a.detail("retry-bound: outstanding attempts get-new=%d apply=%d exceed %d at %v",
				maxGetNew, maxApply, core.MaxRepairAttempts, k.Now())
		}
	}
}

// scheduleHealCheck verifies relay convergence RepairWindow after the
// heal (invariant 3).
func (a *Auditor) scheduleHealCheck(k *sim.Kernel, _ Partition) {
	if a.cfg.RepairWindow < a.cfg.TTN {
		// The window is too short for any INVALIDATION trigger, so the
		// check would be vacuous; record the heal as unchecked instead.
		a.rep.HealsSkipped++
		return
	}
	healAt := k.Now()
	k.After(a.cfg.RepairWindow, "faults.audit.heal", func(kk *sim.Kernel) {
		a.checkHeal(kk, healAt)
	})
}

// checkHeal flags every relay sitting on unserviced repair debt: it heard
// a version newer than its copy at a moment a GET_NEW was due, and
// neither repaired nor (legitimately, invariant 4) gave up.
func (a *Auditor) checkHeal(k *sim.Kernel, healAt time.Duration) {
	a.rep.HealsChecked++
	for i := 0; i < a.reg.Len(); i++ {
		item := data.ItemID(i)
		for _, d := range a.engine.RepairDebts(item) {
			if d.Held >= d.Heard || d.GaveUp {
				continue
			}
			if d.Node < len(a.stores) && !a.chn.Connected(d.Node) {
				continue // down again: cannot be expected to repair
			}
			if d.HeardAt < d.RetryAt {
				continue // no evidence since the last send's gate: no retry was due
			}
			a.rep.HealViolations++
			a.detail("heal-convergence: relay %d item %v in debt since %v (heard v%d, holds v%d) %v after heal at %v",
				d.Node, item, d.Since, d.Heard, d.Held, a.cfg.RepairWindow, healAt)
		}
	}
}

func (a *Auditor) detail(format string, args ...any) {
	if len(a.rep.Details) < maxDetails {
		a.rep.Details = append(a.rep.Details, fmt.Sprintf(format, args...))
	}
}

// Finish folds the consistency auditor's strong-violation count in and
// returns the final report. Call after the kernel stops.
func (a *Auditor) Finish() Report {
	a.rep.StrongBudget = a.cfg.StrongStaleBudget
	if a.cons != nil {
		a.rep.StrongViolations = a.cons.Violations(consistency.ViolationStrong)
		a.rep.TornAnswers = a.cons.Violations(consistency.ViolationTorn)
		a.rep.FutureAnswers = a.cons.Violations(consistency.ViolationFuture)
		a.rep.Answers = a.cons.Answers()
	}
	return a.rep
}

// Report is the outcome of one campaign's invariant auditing.
type Report struct {
	// Invariant 1: stale SC answers against the budget, plus the
	// torn/future classes that indicate outright protocol bugs and are
	// never tolerated.
	StrongViolations uint64
	Answers          uint64
	StrongBudget     float64
	TornAnswers      uint64
	FutureAnswers    uint64
	// Invariant 2: per-node per-item version regressions.
	MonotoneViolations int
	// Invariant 3: relays not converged RepairWindow after a heal.
	HealViolations int
	HealsChecked   int
	HealsSkipped   int
	// Invariant 4: repair attempt counts beyond the bound.
	RetryViolations int
	// Sweeps is how many invariant-2/4 sweeps ran (coverage evidence).
	Sweeps int
	// Details holds up to maxDetails human-readable violation messages.
	Details []string
}

// StrongRate is the fraction of answers stale at strong level.
func (r Report) StrongRate() float64 {
	if r.Answers == 0 {
		return 0
	}
	return float64(r.StrongViolations) / float64(r.Answers)
}

// Passed reports whether every invariant held.
func (r Report) Passed() bool {
	strongOK := r.StrongRate() <= r.StrongBudget &&
		(r.StrongBudget > 0 || r.StrongViolations == 0)
	return strongOK && r.TornAnswers == 0 && r.FutureAnswers == 0 &&
		r.MonotoneViolations == 0 && r.HealViolations == 0 && r.RetryViolations == 0
}

// String renders a one-line verdict plus any details.
func (r Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: sc=%d/%d (%.1f%% of budget %.1f%%) torn=%d future=%d monotone=%d heal=%d/%d (skipped %d) retry=%d sweeps=%d",
		verdict, r.StrongViolations, r.Answers, 100*r.StrongRate(), 100*r.StrongBudget,
		r.TornAnswers, r.FutureAnswers,
		r.MonotoneViolations, r.HealViolations, r.HealsChecked, r.HealsSkipped,
		r.RetryViolations, r.Sweeps)
	for _, d := range r.Details {
		b.WriteString("\n  ")
		b.WriteString(d)
	}
	return b.String()
}
