package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/fleet"
)

const figuresSynopsis = `Every figure of the paper's evaluation (Fig 7a–c, 8a–c, 9a–b and the
§5.3 relay-count series) as aligned text tables (defaults: 1 simulated
hour per run — the paper ran 5h — seed 1). All (strategy, sweep point,
replica) scenarios of the selected figures are deduplicated and run on
the fleet, one worker per core; the output is identical for any
-parallel.

  rpcc figures -simtime 5h -parallel 8
  rpcc figures -only fig9a -parallel 1`

func figuresCmd(ctx context.Context, args []string) error {
	fs := newFlagSet("figures", figuresSynopsis)
	base := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
	base.SimTime = time.Hour
	scenario := scenarioFlags(fs, base, "seed", "simtime")
	var (
		only       = fs.String("only", "", "run a single figure (fig7a..fig9b, relay-count, policy-hit, policy-lat, rw-ratio, diurnal-load)")
		extra      = fs.Bool("extra", false, "append the non-paper sweeps (replacement-policy comparison, read/write ratio, diurnal load)")
		format     = fs.String("format", "table", "output format: table | csv")
		replicas   = fs.Int("replicas", 1, "independent seeds per point, averaged")
		parallel   = fs.Int("parallel", 0, "concurrent simulations (0 = all cores); results are identical for any value")
		timeout    = fs.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
		metricsOut = fs.String("metrics-out", "", "write Prometheus text metrics merged across every run to this file")
	)
	profile := profileFlags(fs)
	fs.Parse(args)
	base, err := scenario()
	if err != nil {
		return err
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	stop, err := profile()
	if err != nil {
		return err
	}
	defer stop()

	specs := experiment.AllFigureSpecs()
	if *extra {
		specs = append(specs, experiment.ExtraFigureSpecs()...)
	}
	if *only != "" {
		// -only searches the full catalogue, paper and extra alike, so
		// `-only policy-hit` works without -extra.
		var filtered []experiment.SweepSpec
		for _, s := range append(experiment.AllFigureSpecs(), experiment.ExtraFigureSpecs()...) {
			if s.ID == *only {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown figure %q", *only)
		}
		specs = filtered
	}

	// One job list across every selected figure; the fleet runs each
	// distinct scenario once even when figures share a sweep matrix.
	var jobs []fleet.Job
	for _, spec := range specs {
		sweep, err := experiment.SweepJobs(spec, base, *replicas)
		if err != nil {
			return err
		}
		for _, j := range sweep {
			jobs = append(jobs, fleet.Job{Key: j.Key, Config: j.Config})
		}
	}

	rep, runErr := fleet.Run(ctx, jobs, fleet.Options{
		Parallel: *parallel,
		Timeout:  *timeout,
		Progress: os.Stderr,
	})
	fleet.ReportFailures(os.Stderr, rep.Records)
	if err := writeFleetMetrics(*metricsOut, rep); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("sweep interrupted (%d/%d runs completed): %w", rep.Executed, len(rep.Records), runErr)
	}

	var failedFigures []string
	for _, spec := range specs {
		fig, err := experiment.AssembleFigure(spec, base, *replicas, rep.Result)
		if err != nil {
			failedFigures = append(failedFigures, spec.ID)
			fmt.Fprintf(os.Stderr, "rpcc figures: %s incomplete: %v\n", spec.ID, err)
			continue
		}
		if *format == "csv" {
			fmt.Print(renderCSV(fig, spec))
		} else {
			fmt.Print(experiment.RenderTable(fig, spec.Metric))
		}
		fmt.Println()
	}

	fmt.Fprintf(os.Stderr, "%d runs (%d failed) on %d workers in %v (%.2f runs/s)\n",
		len(rep.Records), rep.Failed, rep.Workers, rep.Wall.Round(time.Millisecond), rep.RunsPerSec())

	if len(failedFigures) > 0 {
		return fmt.Errorf("%d run(s) failed; incomplete figures: %s",
			rep.Failed, strings.Join(failedFigures, ", "))
	}
	return nil
}

// renderCSV emits one figure as CSV: figure,x,strategy,y — the layout
// plotting scripts want.
func renderCSV(fig experiment.Figure, spec experiment.SweepSpec) string {
	var b strings.Builder
	b.WriteString("figure,x,strategy,y\n")
	for _, series := range fig.Series {
		for _, pt := range series.Points {
			fmt.Fprintf(&b, "%s,%g,%s,%g\n", fig.ID, pt.X, series.Strategy, spec.Metric(pt.Result))
		}
	}
	return b.String()
}
