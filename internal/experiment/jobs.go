package experiment

import (
	"fmt"
	"hash/fnv"
)

// This file holds the pure helpers the fleet orchestrator builds on:
// enumerating a sweep as an explicit job list, fingerprinting a scenario
// config into a stable job key, and assembling a Figure back out of a
// key→Result lookup. Everything here is deterministic and side-effect
// free, so callers may evaluate jobs in any order, on any number of
// workers, and still reproduce the serial result bit for bit.

// SweepJob is one (strategy, sweep point, replica) simulation of a spec.
type SweepJob struct {
	SpecID   string
	Strategy StrategyKind
	X        float64
	Replica  int
	// Key fingerprints the fully applied Config. Two specs that sweep
	// the same underlying parameter (e.g. fig7a and fig8a, which share
	// one simulation matrix and differ only in the plotted metric)
	// produce identical keys, so an executor that caches by key runs
	// each distinct scenario once.
	Key    string
	Config Config
}

// Key returns a stable fingerprint of the scenario: the strategy and
// seed in the clear (for humans reading a failure report) plus an FNV-1a
// hash of every config field. Keys are stable across runs of the same
// binary.
func (c Config) Key() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return fmt.Sprintf("%s/seed%d/%016x", c.Strategy, c.Seed, h.Sum64())
}

// SweepJobs enumerates the spec as an explicit job list: one job per
// (strategy, x, replica) triple, in the deterministic order the serial
// driver would run them. Replica r runs with seed base.Seed+r for every
// strategy and sweep point — deliberately shared, so all strategies face
// the same topology and workload process and A/B comparisons stay fair
// (the property EXPERIMENTS.md relies on). The seed is a pure function
// of the job, so any execution order reproduces the serial sweep.
func SweepJobs(spec SweepSpec, base Config, replicas int) ([]SweepJob, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("experiment: replicas %d must be > 0", replicas)
	}
	if spec.Apply == nil {
		return nil, fmt.Errorf("experiment: spec %q has no Apply", spec.ID)
	}
	defs := spec.seriesDefs()
	jobs := make([]SweepJob, 0, len(defs)*len(spec.Xs)*replicas)
	for _, def := range defs {
		for _, x := range spec.Xs {
			for r := 0; r < replicas; r++ {
				cfg := base
				cfg.Seed = base.Seed + int64(r)
				def.Apply(&cfg)
				spec.Apply(&cfg, x)
				jobs = append(jobs, SweepJob{
					SpecID:   spec.ID,
					Strategy: StrategyKind(def.Label),
					X:        x,
					Replica:  r,
					Key:      cfg.Key(),
					Config:   cfg,
				})
			}
		}
	}
	return jobs, nil
}

// AssembleFigure rebuilds the spec's Figure from a key→Result lookup
// (typically a fleet report). Replica results for each point are folded
// through Aggregate, exactly as the serial driver does. A missing key — a job that failed or never ran —
// is an error naming the job, so partial sweeps fail loudly per figure
// rather than plotting holes.
func AssembleFigure(spec SweepSpec, base Config, replicas int, lookup func(key string) (Result, bool)) (Figure, error) {
	jobs, err := SweepJobs(spec, base, replicas)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     spec.ID,
		Title:  spec.Title,
		XLabel: spec.XLabel,
		YLabel: spec.YLabel,
	}
	i := 0
	for _, def := range spec.seriesDefs() {
		s := Series{Strategy: StrategyKind(def.Label), Points: make([]Point, 0, len(spec.Xs))}
		for _, x := range spec.Xs {
			runs := make([]Result, 0, replicas)
			for r := 0; r < replicas; r++ {
				j := jobs[i]
				i++
				res, ok := lookup(j.Key)
				if !ok {
					return Figure{}, fmt.Errorf("experiment: %s %s x=%g replica=%d (job %s): no result (failed or not run)",
						spec.ID, def.Label, x, r, j.Key)
				}
				runs = append(runs, res)
			}
			s.Points = append(s.Points, Point{X: x, Result: Aggregate(runs).Mean})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
