package experiment

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// chaosSweepEvery is the invariant-audit period during chaos campaigns:
// fine enough to catch transient version regressions, coarse enough that
// the sweep itself stays invisible in the profile.
const chaosSweepEvery = 5 * time.Second

// RunChaos executes one scenario with a fault campaign injected and the
// consistency invariants audited throughout. It is a separate entry point
// rather than extra Config fields on purpose: Config.Key() hashes the
// struct to deduplicate fleet jobs, and chaos campaigns must not shift
// the keys of plain experiments.
//
// Only RPCC strategies are supported — the crash wipe, relay
// assassination and heal-convergence checks all reach into the engine's
// relay table.
//
// A non-nil tracer records the run's causal trace, the injected faults
// among it as fault roots; the caller exports it. Like RunWithTrace it
// observes without touching: Result and Report equal the untraced run's.
func RunChaos(cfg Config, hub *telemetry.Hub, tracer *ctrace.Collector, fc faults.Config) (Result, *faults.Report, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	switch cfg.Strategy {
	case StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY:
	default:
		return Result{}, nil, fmt.Errorf("experiment: chaos campaigns require an RPCC strategy, got %q", cfg.Strategy)
	}
	coreCfg := coreConfigFrom(cfg)

	var auditor *faults.Auditor
	res, err := runScenario(cfg, hub, tracer, func(env runEnv) error {
		engine, ok := env.strat.(*core.Engine)
		if !ok {
			return fmt.Errorf("experiment: chaos strategy %q did not build a core engine", cfg.Strategy)
		}
		plane, err := faults.NewPlane(fc, faults.Env{
			Net: env.net, Churn: env.churn, Stores: env.stores,
			Engine: engine, Hub: hub, Tracer: tracer,
		})
		if err != nil {
			return err
		}
		a, err := faults.NewAuditor(faults.AuditorConfig{
			SweepEvery:        chaosSweepEvery,
			RepairWindow:      fc.RepairWindow,
			TTN:               coreCfg.TTN,
			MaxRepairAttempts: coreCfg.MaxRepairAttempts,
			StrongStaleBudget: fc.StrongStaleBudget,
		}, env.reg, env.stores, env.churn, engine, env.aud)
		if err != nil {
			return err
		}
		// Auditor first: its heal/crash callbacks must be registered
		// before the plane schedules anything against them.
		if err := a.Install(env.k, plane); err != nil {
			return err
		}
		if err := plane.Install(env.k); err != nil {
			return err
		}
		auditor = a
		return nil
	})
	if err != nil {
		return res, nil, err
	}
	rep := auditor.Finish()
	return res, &rep, nil
}
