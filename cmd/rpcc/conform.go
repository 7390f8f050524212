package main

import (
	"context"
	"fmt"

	"github.com/manetlab/rpcc/internal/oracle"
)

const conformSynopsis = `The differential conformance gate; non-zero exit if any check fails.
  1. Mutant gate: every known protocol mutant is injected in turn and
     must be caught by the oracle while its unmutated control stays
     silent, across -seeds kernel seeds.
  2. Clean and policy sweeps: every strategy, and every replacement
     policy, runs an unmutated, unperturbed workload per seed; any
     divergence is a false positive.
  3. Fuzz: -fuzz rounds of randomly perturbed schedules against the
     unmutated tree; a divergence that survives shrinking is printed.
Output is a pure function of the flags (make conform-smoke compares two
runs byte for byte). An interrupt stops at a phase or seed boundary.

  rpcc conform -seeds 5 -fuzz 25`

func conformCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("conform", conformSynopsis)
	var (
		seeds    = fs.Int64("seeds", 5, "kernel seeds to repeat the mutant gate and the sweeps over (1..N)")
		fuzz     = fs.Int("fuzz", 25, "random perturbation rounds against the unmutated tree (0 disables)")
		fuzzSeed = fs.Int64("fuzz-seed", 7, "root seed for the fuzz campaign")
	)
	fs.Parse(args)
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1")
	}
	interrupted := func() bool { return ctx.Err() != nil }
	failures := 0

	fmt.Printf("== mutant gate: %d mutants x %d seeds ==\n", len(oracle.Gates(1)), *seeds)
	for seed := int64(1); seed <= *seeds && !interrupted(); seed++ {
		for _, r := range oracle.RunGates(seed) {
			switch {
			case r.Err != nil:
				failures++
				fmt.Printf("FAIL seed=%d %-22s error: %v\n", seed, r.Mutant, r.Err)
			case !r.Caught:
				failures++
				fmt.Printf("FAIL seed=%d %-22s escaped (divergences=%d first=%q falsePositives=%d)\n",
					seed, r.Mutant, r.Detected, r.FirstKind, r.FalsePositives)
			default:
				fmt.Printf("ok   seed=%d %-22s caught=%d kind=%s clean=0\n",
					seed, r.Mutant, r.Detected, r.FirstKind)
			}
		}
	}

	for _, sweep := range []struct {
		name, unit string
		width      int
		scenarios  func(seed int64) []oracle.Scenario
	}{
		{"clean sweep", "strategies", 16, oracle.CleanSweep},
		{"policy sweep", "scenarios", 24, oracle.PolicySweep},
	} {
		fmt.Printf("== %s: %d %s x %d seeds ==\n", sweep.name, len(sweep.scenarios(1)), sweep.unit, *seeds)
		for seed := int64(1); seed <= *seeds && !interrupted(); seed++ {
			for _, sc := range sweep.scenarios(seed) {
				rep, err := oracle.Run(sc)
				switch {
				case err != nil:
					failures++
					fmt.Printf("FAIL seed=%d %-*s error: %v\n", seed, sweep.width, sc.Name, err)
				case len(rep.Divergences) > 0:
					failures++
					fmt.Printf("FAIL seed=%d %-*s %d false positives, first: %s\n",
						seed, sweep.width, sc.Name, len(rep.Divergences), rep.Divergences[0])
				case rep.Answered == 0:
					failures++
					fmt.Printf("FAIL seed=%d %-*s vacuous: zero answers\n", seed, sweep.width, sc.Name)
				default:
					fmt.Printf("ok   seed=%d %-*s answered=%d divergences=0\n", seed, sweep.width, sc.Name, rep.Answered)
				}
			}
		}
	}

	if *fuzz > 0 && !interrupted() {
		fmt.Printf("== fuzz: %d rounds, seed %d ==\n", *fuzz, *fuzzSeed)
		findings, err := oracle.Fuzz(oracle.FuzzConfig{Seed: *fuzzSeed, Rounds: *fuzz})
		if err != nil {
			return err
		}
		if len(findings) == 0 {
			fmt.Printf("ok   fuzz: %d rounds, 0 findings\n", *fuzz)
		}
		for _, f := range findings {
			failures++
			fmt.Printf("FAIL fuzz round=%d strategy=%s divergences=%d\n",
				f.Round, f.Shrunk.Strategy, len(f.Divergences))
			fmt.Printf("     first: %s\n", f.Divergences[0])
			fmt.Printf("     shrunk repro: %d nodes, %d rules, horizon %dms (write with oracle.WriteTrace)\n",
				f.Shrunk.Nodes, len(f.Shrunk.Rules), f.Shrunk.HorizonMS)
		}
	}

	if interrupted() {
		return fmt.Errorf("interrupted with %d failure(s) so far; verdict incomplete", failures)
	}
	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	fmt.Println("== conform: all checks passed ==")
	return nil
}
