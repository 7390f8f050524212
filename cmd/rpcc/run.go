package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/fleet"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

const runSynopsis = `One Table 1 scenario and its metric report; every Table 1 knob is a
flag and the defaults are the paper's (5 simulated hours, seed 1).
-faults runs it under a fault campaign with the consistency invariants
audited throughout: the verdict follows the report and a violation is a
non-zero exit. -replicas N runs seeds seed..seed+N-1 on the fleet and
adds across-seed means with spread. Stdout is a pure function of the
flags; wall time goes to stderr.

  rpcc run -strategy pull -simtime 1h -seed 3
  rpcc run -seed 11 -simtime 25m -detail=false -faults demo
  rpcc run -simtime 1h -replicas 8 -faults campaign.json
  rpcc run -policy lfu -cachenum 4 -zipf -hotspot 6m,8m,1,0.8`

func runCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("run", runSynopsis)
	scenario := scenarioFlags(fs, experiment.DefaultConfig(experiment.StrategyRPCCSC, 1))
	var (
		detail     = fs.Bool("detail", true, "print the per-kind traffic breakdown")
		replicas   = fs.Int("replicas", 1, "independent seeds (seed..seed+N-1), run concurrently and aggregated")
		parallel   = fs.Int("parallel", 0, "concurrent replica runs (0 = all cores)")
		metricsOut = fs.String("metrics-out", "", "write Prometheus text metrics to this file (merged across replicas)")
		traceOut   = fs.String("trace-out", "", "write the causal trace (span JSONL, injected faults included) to this file (requires -replicas 1)")
	)
	profile := profileFlags(fs)
	fs.Parse(args)
	cfg, err := scenario()
	if err != nil {
		return err
	}
	stop, err := profile()
	if err != nil {
		return err
	}
	defer stop()

	if *replicas > 1 {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out records one run's causal trace; use -replicas 1")
		}
		return runReplicas(ctx, cfg, *replicas, *parallel, *metricsOut)
	}

	start := time.Now()
	var res experiment.Result
	var spans []ctrace.Span
	if *traceOut != "" {
		res, spans, err = experiment.RunWithTrace(cfg, telemetry.NewHub(telemetry.LevelMetrics))
	} else {
		res, err = experiment.Run(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rpcc run: simulated %v of %d peers in %v wall time\n",
		cfg.SimTime, cfg.NPeers, time.Since(start).Round(time.Millisecond))
	if *detail {
		fmt.Print(experiment.RenderDetail(res))
	} else {
		fmt.Println(res)
	}
	if res.Faults != nil {
		fmt.Println(res.Faults)
	}
	if *metricsOut != "" {
		if err := telemetry.WritePrometheusFile(*metricsOut, res.Telemetry); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := ctrace.WriteFile(*traceOut, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rpcc run: %d spans -> %s\n", len(spans), *traceOut)
	}
	if res.Faults != nil && !res.Faults.Passed() {
		return fmt.Errorf("invariant audit failed")
	}
	return nil
}

// runReplicas runs the scenario once per seed on the fleet and prints a
// one-liner per seed — and its fault verdict under a campaign — then the
// across-seed aggregate with spread. The merged metrics of every
// completed run are written even when the sweep is interrupted.
func runReplicas(ctx context.Context, base experiment.Config, replicas, parallel int, metricsOut string) error {
	jobs := make([]fleet.Job, replicas)
	for i := range jobs {
		cfg := base
		cfg.Seed += int64(i)
		jobs[i] = fleet.Job{Key: cfg.Key(), Config: cfg}
	}
	rep, runErr := fleet.Run(ctx, jobs, fleet.Options{Parallel: parallel, Progress: os.Stderr})
	fleet.ReportFailures(os.Stderr, rep.Records)
	if err := writeFleetMetrics(metricsOut, rep); err != nil {
		return err
	}

	var results []experiment.Result
	violated := 0
	for _, rec := range rep.Records {
		if rec.Status != fleet.StatusOK {
			continue
		}
		res := *rec.Result
		results = append(results, res)
		fmt.Printf("seed %-3d %v\n", rec.Seed, res)
		if res.Faults != nil {
			fmt.Printf("         %v\n", res.Faults)
			if !res.Faults.Passed() {
				violated++
			}
		}
	}
	if runErr != nil {
		return fmt.Errorf("interrupted (%d/%d runs completed): %w", rep.Executed, len(rep.Records), runErr)
	}
	if len(results) == 0 {
		return fmt.Errorf("all %d replicas failed", replicas)
	}
	fmt.Fprintf(os.Stderr, "rpcc run: simulated %v of %d peers × %d seeds on %d workers in %v wall time (%.2f runs/s)\n",
		base.SimTime, base.NPeers, len(results), rep.Workers, rep.Wall.Round(time.Millisecond), rep.RunsPerSec())

	s := experiment.Aggregate(results)
	fmt.Printf("\nacross seeds (mean ± stddev, ±95%% CI):\n")
	printDist := func(name, unit string, d experiment.Dist) {
		fmt.Printf("  %-16s %12.1f ± %-10.1f (±%.1f) %s\n", name, d.Mean, d.Stddev, d.CI95, unit)
	}
	printDist("traffic", "msgs", s.TotalTx)
	printDist("bytes", "B", s.TotalBytes)
	printDist("latency", "ms", s.MeanLatencyMs)
	printDist("answer rate", "", s.AnswerRate)
	printDist("violations", "", s.Violations)
	printDist("relay peers", "", s.RelayCount)
	printDist("energy drain", "units", s.EnergyDrained)
	printDist("hit ratio", "", s.MeanHitRatio)
	if rep.Failed > 0 || violated > 0 {
		return fmt.Errorf("of %d replicas, %d failed and %d violated invariants", replicas, rep.Failed, violated)
	}
	return nil
}

// writeFleetMetrics writes the merged telemetry of rep's completed runs
// to path as Prometheus text; an empty path writes nothing.
func writeFleetMetrics(path string, rep fleet.Report) error {
	if path == "" {
		return nil
	}
	merged, err := rep.Telemetry()
	if err != nil {
		return err
	}
	return telemetry.WritePrometheusFile(path, merged)
}
