// Package consistency defines the paper's three consistency levels (§3,
// Eq 3.2.1–3.2.3) and an online auditor that checks every answered query
// against the simulation's ground truth.
//
// The auditor gives the reproduction teeth: a strategy cannot "win" the
// latency comparison by serving garbage, because every answer is checked
// for (a) being a committed value — weak consistency, Eq 3.2.3 — and (b)
// its staleness τ, which strong consistency requires to be zero at answer
// time (Eq 3.2.1) and Δ-consistency bounds by Δ (Eq 3.2.2).
package consistency

import (
	"fmt"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Level is a query's consistency requirement.
type Level int

// Consistency levels. Values start at 1 so the zero value is invalid.
const (
	LevelInvalid Level = iota
	// LevelStrong (SC): the answer must be the source's current version
	// at the time the query is served.
	LevelStrong
	// LevelDelta (DC): the answer may lag the source by at most Δ.
	LevelDelta
	// LevelWeak (WC): the answer must be some previously committed value.
	LevelWeak
)

// String renders the level in the paper's abbreviations.
func (l Level) String() string {
	switch l {
	case LevelStrong:
		return "SC"
	case LevelDelta:
		return "DC"
	case LevelWeak:
		return "WC"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is a defined level.
func (l Level) Valid() bool {
	return l == LevelStrong || l == LevelDelta || l == LevelWeak
}

// Answer is one served query, as reported by a strategy to the auditor.
type Answer struct {
	Item       data.ItemID
	Level      Level
	AnsweredAt time.Duration
	Served     data.Copy
}

// Violation classifies an audit failure.
type Violation int

// Violation kinds.
const (
	ViolationNone Violation = iota
	// ViolationTorn: the served copy is not any committed value.
	ViolationTorn
	// ViolationFuture: the served version exceeds the master's (impossible
	// for a correct simulation; indicates a protocol bug).
	ViolationFuture
	// ViolationStrong: an SC answer was stale.
	ViolationStrong
	// ViolationDelta: a DC answer was staler than Δ.
	ViolationDelta
)

// String names the violation for reports.
func (v Violation) String() string {
	switch v {
	case ViolationNone:
		return "none"
	case ViolationTorn:
		return "torn-value"
	case ViolationFuture:
		return "future-version"
	case ViolationStrong:
		return "strong-stale"
	case ViolationDelta:
		return "delta-exceeded"
	default:
		return fmt.Sprintf("Violation(%d)", int(v))
	}
}

// numViolations sizes the per-class counters.
const numViolations = int(ViolationDelta) + 1

// Auditor counts Judge's verdicts over a run's answers. It supplies the
// simulator's side of the judge: the registry's masters as histories and
// the horizon at − bound − slack.
type Auditor struct {
	mu       sync.Mutex
	registry *data.Registry
	delta    time.Duration
	// slack forgives staleness up to the message in-flight time: a copy
	// that was current when the relay answered may be superseded while
	// the reply is in the air. The paper's definitions are instantaneous;
	// a distributed implementation can only promise them up to delivery
	// latency.
	slack time.Duration

	answers    uint64
	violations [numViolations]uint64
	// Staleness of the answers that had one (committed, dated by a
	// ledger): enough to report the mean and the maximum.
	staleSum, staleMax time.Duration
	staleN             uint64
}

// NewAuditor builds an auditor. delta is the Δ bound for DC queries; slack
// is the in-flight forgiveness applied to SC/DC checks. A nil registry
// builds a judge without a ledger — a wire daemon, whose own registry
// never hears another owner's commits: it counts torn copies only and
// reports every staleness as Unknown. The zero Auditor is that judge
// with no Δ and no slack.
func NewAuditor(registry *data.Registry, delta, slack time.Duration) (*Auditor, error) {
	if delta < 0 || slack < 0 {
		return nil, fmt.Errorf("consistency: negative delta %v or slack %v", delta, slack)
	}
	return &Auditor{registry: registry, delta: delta, slack: slack}, nil
}

// CheckStale audits one answer and records the outcome. It returns the
// violation class (ViolationNone when the answer satisfied its level)
// and the served copy's staleness at delivery — the quantity the
// telemetry layer exports per consistency level (see Verdict.Stale).
func (a *Auditor) CheckStale(ans Answer) (Violation, time.Duration, error) {
	if !ans.Level.Valid() {
		return ViolationNone, 0, fmt.Errorf("consistency: invalid level %v", ans.Level)
	}
	var h History
	if a.registry != nil {
		m, err := a.registry.Master(ans.Item)
		if err != nil {
			return ViolationNone, 0, err
		}
		h = m
	}
	var horizon time.Duration
	switch ans.Level {
	case LevelStrong:
		horizon = ans.AnsweredAt - a.slack
	case LevelDelta:
		horizon = ans.AnsweredAt - a.delta - a.slack
	}
	v := Judge(h, ans.Item, ans.Level, ans.Served, ans.AnsweredAt, horizon, 0)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.answers++
	a.violations[v.Kind]++
	if h != nil && v.Kind != ViolationTorn && v.Kind != ViolationFuture {
		a.staleN++
		a.staleSum += v.Stale
		if v.Stale > a.staleMax {
			a.staleMax = v.Stale
		}
	}
	return v.Kind, v.Stale, nil
}

// Answers returns the number of audited answers.
func (a *Auditor) Answers() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.answers
}

// Violations returns the count for one violation class.
func (a *Auditor) Violations(v Violation) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.violations[v]
}

// TotalViolations sums all violation classes.
func (a *Auditor) TotalViolations() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum uint64
	for _, n := range a.violations[ViolationNone+1:] {
		sum += n
	}
	return sum
}

// MeanStaleness returns the mean staleness across audited answers.
func (a *Auditor) MeanStaleness() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.staleN == 0 {
		return 0
	}
	return a.staleSum / time.Duration(a.staleN)
}

// MaxStaleness returns the worst staleness across audited answers.
func (a *Auditor) MaxStaleness() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.staleMax
}
