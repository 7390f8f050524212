package oracle

import (
	"fmt"
	"math/rand"
)

// FuzzConfig drives a deterministic fuzzing campaign: Rounds random
// scenarios derived from Seed. The same (Seed, Rounds, Strategy) always
// explores the same scenarios and reports the same findings.
type FuzzConfig struct {
	Seed   int64
	Rounds int
	// Strategy fixes the strategy under test; "" rotates through all of
	// them round-robin.
	Strategy string
}

// FuzzFinding is one divergence-producing scenario, shrunk to a minimal
// reproducer.
type FuzzFinding struct {
	Round int
	// Original is the scenario as generated.
	Original Scenario
	// Shrunk is the minimised scenario; Divergences are its divergences.
	Shrunk      Scenario
	Divergences []Divergence
}

var fuzzStrategies = []string{"rpcc", "pull", "push"}

// rpccKinds are the message kinds the fuzzer perturbs on RPCC runs;
// baselineKinds likewise for the pushpull engines.
var rpccKinds = []string{
	"INVALIDATION", "UPDATE", "GET_NEW", "SEND_NEW",
	"POLL", "POLL_ACK_A", "POLL_ACK_B", "DATA_REQUEST", "DATA_REPLY",
}
var baselineKinds = []string{
	"IR", "PULL_POLL", "PULL_REPLY", "PULL_ACK", "DATA_REQUEST", "DATA_REPLY",
}

// randomScenario draws one scenario. All randomness comes from rng, so a
// round is fully determined by its derived seed.
func randomScenario(rng *rand.Rand, strategy string, round int) Scenario {
	const minMS = int64(60_000)
	nodes := 4 + rng.Intn(5) // 4..8
	horizon := (10 + int64(rng.Intn(8))) * minMS
	sc := Scenario{
		Name:      fmt.Sprintf("fuzz-%s-r%d", strategy, round),
		Seed:      rng.Int63(),
		Nodes:     nodes,
		Strategy:  strategy,
		HorizonMS: horizon,
	}

	// Workload: item 0 (owner node 0), a handful of warm copies, a few
	// commits in the first two-thirds of the horizon, periodic pollers.
	for host := 1; host < nodes; host++ {
		if rng.Intn(2) == 0 {
			sc.Warm = append(sc.Warm, Placement{Host: host, Item: 0})
		}
	}
	if strategy == "rpcc" && len(sc.Warm) > 0 && rng.Intn(2) == 0 {
		sc.Relays = append(sc.Relays, Placement{Host: sc.Warm[0].Host, Item: 0})
	}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		at := minMS + rng.Int63n(horizon*2/3)
		sc.Commits = append(sc.Commits, CommitEvent{AtMS: at, Host: 0})
	}
	levels := []string{"SC", "DC", "WC"}
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		sc.Pollers = append(sc.Pollers, Poller{
			Host:     1 + rng.Intn(nodes-1),
			Item:     0,
			Level:    levels[rng.Intn(len(levels))],
			StartMS:  10_000 + rng.Int63n(20_000),
			PeriodMS: 5_000 + rng.Int63n(15_000),
		})
	}
	if strategy == "rpcc" && rng.Intn(3) == 0 {
		sc.Crashes = append(sc.Crashes, CrashEvent{
			AtMS: minMS + rng.Int63n(horizon/2),
			Host: 1 + rng.Intn(nodes-1),
		})
	}

	// Schedule perturbations: delayed, duplicated and dropped control
	// messages.
	kinds := rpccKinds
	if strategy != "rpcc" {
		kinds = baselineKinds
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		r := Rule{
			Kind:       kinds[rng.Intn(len(kinds))],
			Version:    -1,
			Item:       -1,
			To:         -1,
			Occurrence: rng.Intn(4), // 0 = every
		}
		if rng.Intn(2) == 0 {
			r.Version = rng.Int63n(4)
		}
		if rng.Intn(3) == 0 {
			r.To = rng.Intn(nodes)
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // drop
			r.Drop = true
		case 4, 5, 6: // delay
			r.DelayMS = 1_000 + rng.Int63n(59_000)
		default: // duplicate, delayed copy
			r.Dup = true
			r.DelayMS = 1_000 + rng.Int63n(59_000)
		}
		sc.Rules = append(sc.Rules, r)
	}

	// Soundness: widen every staleness envelope by the largest injected
	// delay, so delayed *fresh* evidence can never read as a divergence.
	sc.InflateMS = int64(maxRuleDelay(sc.Rules).Milliseconds())
	return sc
}

// reproduces reruns a candidate scenario and reports whether it still
// diverges. Scenario errors count as non-reproduction.
func reproduces(sc Scenario) bool {
	rep, err := Run(sc)
	return err == nil && len(rep.Divergences) > 0
}

// shrink greedily minimises a diverging scenario: drop rules, crashes,
// commits, pollers, warm placements and trailing horizon while the
// divergence persists. Bounded by a fixed pass budget so fuzzing cannot
// stall on a pathological case.
func shrink(sc Scenario) Scenario {
	cur := sc
	for pass := 0; pass < 8; pass++ {
		changed := false

		tryRules := func() {
			for i := 0; i < len(cur.Rules); i++ {
				cand := cur
				cand.Rules = append(append([]Rule(nil), cur.Rules[:i]...), cur.Rules[i+1:]...)
				cand.InflateMS = int64(maxRuleDelay(cand.Rules).Milliseconds())
				if reproduces(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		tryCrashes := func() {
			for i := 0; i < len(cur.Crashes); i++ {
				cand := cur
				cand.Crashes = append(append([]CrashEvent(nil), cur.Crashes[:i]...), cur.Crashes[i+1:]...)
				if reproduces(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		tryCommits := func() {
			for i := 0; i < len(cur.Commits); i++ {
				cand := cur
				cand.Commits = append(append([]CommitEvent(nil), cur.Commits[:i]...), cur.Commits[i+1:]...)
				if reproduces(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		tryPollers := func() {
			if len(cur.Pollers) <= 1 {
				return
			}
			for i := 0; i < len(cur.Pollers); i++ {
				cand := cur
				cand.Pollers = append(append([]Poller(nil), cur.Pollers[:i]...), cur.Pollers[i+1:]...)
				if reproduces(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		tryWarm := func() {
			for i := 0; i < len(cur.Warm); i++ {
				cand := cur
				cand.Warm = append(append([]Placement(nil), cur.Warm[:i]...), cur.Warm[i+1:]...)
				// Relays require their warm placement; drop dependents.
				var relays []Placement
				for _, r := range cand.Relays {
					kept := false
					for _, w := range cand.Warm {
						if w == r {
							kept = true
						}
					}
					if kept {
						relays = append(relays, r)
					}
				}
				cand.Relays = relays
				if reproduces(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		tryHorizon := func() {
			cand := cur
			cand.HorizonMS = cur.HorizonMS * 3 / 4
			if cand.HorizonMS > 0 && reproduces(cand) {
				cur = cand
				changed = true
			}
		}

		tryRules()
		tryCrashes()
		tryCommits()
		tryPollers()
		tryWarm()
		tryHorizon()
		if !changed {
			break
		}
	}
	return cur
}

// Fuzz runs the campaign and returns every finding, shrunk. An error is
// only returned for campaign-level misconfiguration; scenarios that fail
// to build (e.g. a generated rule outside a strategy's vocabulary) are
// skipped deterministically.
func Fuzz(cfg FuzzConfig) ([]FuzzFinding, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("oracle: fuzz rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.Strategy != "" {
		found := false
		for _, s := range fuzzStrategies {
			if s == cfg.Strategy {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("oracle: unknown fuzz strategy %q", cfg.Strategy)
		}
	}
	var findings []FuzzFinding
	for round := 0; round < cfg.Rounds; round++ {
		strategy := cfg.Strategy
		if strategy == "" {
			strategy = fuzzStrategies[round%len(fuzzStrategies)]
		}
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(round)))
		sc := randomScenario(rng, strategy, round)
		rep, err := Run(sc)
		if err != nil {
			// Deterministically skip unbuildable scenarios.
			continue
		}
		if len(rep.Divergences) == 0 {
			continue
		}
		shrunk := shrink(sc)
		srep, err := Run(shrunk)
		if err != nil || len(srep.Divergences) == 0 {
			// Shrinking must preserve reproduction; fall back to the
			// original if it somehow did not.
			shrunk, srep = sc, rep
		}
		findings = append(findings, FuzzFinding{
			Round:       round,
			Original:    sc,
			Shrunk:      shrunk,
			Divergences: srep.Divergences,
		})
	}
	return findings, nil
}
