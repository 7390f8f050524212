// Package rpcc is a library implementation and simulation testbed for
// RPCC — Relay Peer-based Cache Consistency — the cooperative-caching
// consistency protocol for mobile peer-to-peer systems over MANETs from
// Cao, Zhang, Xie and Cao (ICDCS 2005), together with the simple push and
// simple pull baselines the paper evaluates against.
//
// The package offers two entry points:
//
//   - Scenario / Run: declarative reproduction of the paper's
//     experiments. A Scenario carries every Table 1 parameter; Run
//     simulates it end to end on the bundled MANET simulator
//     (random-waypoint mobility, unit-disk radio, TTL-scoped flooding,
//     hop-by-hop routing, churn and battery models) and returns the
//     metrics the paper plots: network traffic and query latency, plus a
//     consistency audit of every served answer.
//
//   - Simulation: an imperative, scriptable handle for custom scenarios —
//     schedule queries, updates and disconnections at chosen virtual
//     times and inspect protocol state (roles, relay tables) as the run
//     progresses. examples/quickstart is built on it.
//
// All simulations are deterministic: the same seed reproduces the same
// run, byte for byte.
package rpcc

import (
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/experiment"
)

// Strategy selects a consistency engine and (for RPCC) the consistency
// level its queries request.
type Strategy = experiment.StrategyKind

// The available strategies.
const (
	// StrategyPull is the simple pull baseline: every query floods a poll
	// toward the item's source host (TTL_BR hops).
	StrategyPull = experiment.StrategyPull
	// StrategyPush is the simple push baseline: every source host floods
	// a periodic invalidation report; queries wait for the next report.
	StrategyPush = experiment.StrategyPush
	// StrategyRPCCSC is RPCC serving strong-consistency queries.
	StrategyRPCCSC = experiment.StrategyRPCCSC
	// StrategyRPCCDC is RPCC serving Δ-consistency queries (Δ = TTP).
	StrategyRPCCDC = experiment.StrategyRPCCDC
	// StrategyRPCCWC is RPCC serving weak-consistency queries.
	StrategyRPCCWC = experiment.StrategyRPCCWC
	// StrategyRPCCHY is RPCC under the paper's hybrid workload: strong,
	// Δ and weak requests arrive with equal probability.
	StrategyRPCCHY = experiment.StrategyRPCCHY
)

// Level is a query's consistency requirement (§3 of the paper).
type Level = consistency.Level

// The three consistency levels.
const (
	// LevelStrong: the answer is the source's current version (Eq 3.2.1).
	LevelStrong = consistency.LevelStrong
	// LevelDelta: the answer lags the source by at most Δ (Eq 3.2.2).
	LevelDelta = consistency.LevelDelta
	// LevelWeak: the answer is some previously committed value (Eq 3.2.3).
	LevelWeak = consistency.LevelWeak
)

// Scenario is a complete experiment description: the paper's Table 1
// parameters plus the knobs Table 1 leaves implicit (mobility speeds,
// churn split, warm placement). Construct with DefaultScenario and
// override fields as needed.
type Scenario = experiment.Config

// Result carries one run's metrics: traffic (total and per message kind),
// latency distribution, query accounting, the consistency audit, and
// RPCC's relay statistics.
type Result = experiment.Result

// DefaultScenario returns the paper's Table 1 scenario for one strategy:
// 50 peers on a 1.5 km × 1.5 km field, 250 m radio range, 10-entry
// caches, 5 h simulated time, 2 min mean update interval, 20 s mean query
// interval.
func DefaultScenario(s Strategy, seed int64) Scenario {
	return experiment.DefaultConfig(s, seed)
}

// Run simulates a scenario to completion and returns its metrics.
func Run(s Scenario) (Result, error) {
	return experiment.Run(s)
}

// FigureSpec describes one of the paper's figure sweeps; see Figures.
type FigureSpec = experiment.SweepSpec

// Figure is an evaluated sweep: one series per strategy.
type Figure = experiment.Figure

// Figures returns a sweep specification for every figure in the paper's
// evaluation (Fig 7a–c, 8a–c, 9a–b, plus the §5.3 relay-count series).
// Evaluate one with RunFigure.
func Figures() []FigureSpec {
	return experiment.AllFigureSpecs()
}

// RunFigure evaluates a figure sweep against a base scenario (the swept
// parameter and strategy are overridden per point).
func RunFigure(spec FigureSpec, base Scenario) (Figure, error) {
	return experiment.RunSweep(spec, base)
}

// RenderFigure lays an evaluated figure out as an aligned text table.
func RenderFigure(fig Figure, spec FigureSpec) string {
	return experiment.RenderTable(fig, spec.Metric)
}

// RenderResult renders one run's metrics with its per-kind traffic
// breakdown.
func RenderResult(r Result) string {
	return experiment.RenderDetail(r)
}
