// Command figures regenerates every figure of the paper's evaluation
// section (Fig 7a–c, 8a–c, 9a–b, plus the §5.3 relay-count series) as
// aligned text tables. Simulations are dispatched through the fleet
// orchestrator: all (strategy, sweep-point, replica) scenarios across
// the selected figures are deduplicated (fig7a/fig8a share one
// simulation matrix) and run concurrently, one worker per core by
// default. Results are identical to a serial run for the same seed.
//
// A full 5-hour Table 1 reproduction on all cores:
//
//	figures -simtime 5h -parallel 8
//
// A quick pass (seconds of wall time):
//
//	figures -simtime 30m
//
// Single figure, serial reference mode:
//
//	figures -only fig9a -parallel 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/fleet"
	"github.com/manetlab/rpcc/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		simTime    = flag.Duration("simtime", time.Hour, "simulated duration per run (paper: 5h)")
		seed       = flag.Int64("seed", 1, "root random seed")
		only       = flag.String("only", "", "run a single figure (fig7a..fig9b, relay-count, policy-hit, policy-lat, rw-ratio, diurnal-load)")
		extra      = flag.Bool("extra", false, "append the non-paper sweeps (replacement-policy comparison, read/write ratio, diurnal load)")
		format     = flag.String("format", "table", "output format: table | csv")
		replicas   = flag.Int("replicas", 1, "independent seeds per point, averaged")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = all cores); results are identical for any value")
		timeout    = flag.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text metrics merged across every run to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := telemetry.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figures: pprof on http://%s/debug/pprof/\n", addr)
		defer telemetry.StartRuntimeStats(os.Stderr, 10*time.Second)()
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	specs := experiment.AllFigureSpecs()
	if *extra {
		specs = append(specs, experiment.ExtraFigureSpecs()...)
	}
	if *only != "" {
		// -only searches the full catalogue, paper and extra alike, so
		// `figures -only policy-hit` works without -extra.
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

	base := experiment.DefaultConfig(experiment.StrategyRPCCSC, *seed)
	base.SimTime = *simTime

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

	// Ctrl-C cancels the context; the fleet drains in-flight runs and we
	// exit with the partial report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, runErr := fleet.Run(ctx, jobs, fleet.Options{
		Parallel: *parallel,
		Timeout:  *timeout,
		Progress: os.Stderr,
	})
	fleet.ReportFailures(os.Stderr, rep.Records)

	if *metricsOut != "" {
		if err := writeMergedMetrics(*metricsOut, rep.Records); err != nil {
			return err
		}
	}
	if runErr != nil {
		return fmt.Errorf("sweep interrupted (%d/%d runs completed): %w", rep.Executed, len(rep.Records), runErr)
	}

	var failedFigures []string
	for _, spec := range specs {
		fig, err := experiment.AssembleFigure(spec, base, *replicas, rep.Result)
		if err != nil {
			failedFigures = append(failedFigures, spec.ID)
			fmt.Fprintf(os.Stderr, "figures: %s incomplete: %v\n", spec.ID, err)
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

// writeMergedMetrics folds the telemetry snapshots of every successful
// run into one Prometheus text file — the sweep's aggregate protocol
// picture.
func writeMergedMetrics(path string, records []fleet.Record) error {
	var merged *telemetry.Snapshot
	for _, rec := range records {
		if rec.Status != fleet.StatusOK || rec.Result == nil || rec.Result.Telemetry == nil {
			continue
		}
		if merged == nil {
			merged = rec.Result.Telemetry
			continue
		}
		if err := merged.Merge(rec.Result.Telemetry); err != nil {
			return fmt.Errorf("merge telemetry for %s: %w", rec.Key, err)
		}
	}
	if merged == nil {
		return fmt.Errorf("no successful runs carried telemetry; nothing to write to %s", path)
	}
	return telemetry.WritePrometheusFile(path, merged)
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
