// Command chaos runs one RPCC scenario under a deterministic fault
// campaign — network partitions, bursty Gilbert–Elliott loss, node
// crashes, relay assassination, duplication and jitter — while the
// consistency invariants are audited throughout (see internal/faults).
// The campaign is faults.Demo(peers) unless -faults names a JSON campaign
// file: the same schema wiretest and rpccd read
// (internal/faults/testdata/demo.json is the default campaign at 50
// peers).
//
// Everything is a pure function of the seed and the campaign: two runs
// with identical flags produce byte-identical stdout, metrics and causal
// traces, which is what `make chaos-smoke` asserts. The exit status is
// non-zero when any invariant is violated, so the command doubles as a CI
// soak gate.
//
// Examples:
//
//	chaos                             # demonstration campaign, 25 simulated minutes
//	chaos -faults my-campaign.json    # any other campaign
//	chaos -sweep 8 -parallel 8        # same campaign across 8 seeds on the fleet
//	chaos -policy lfu -cache 4 -zipf -hotspot 6m,8m,1,0.8
//	                                  # flash crowd on item 1 under replacement churn
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/fleet"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		strategy = flag.String("strategy", "rpcc-sc", "rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
		seed     = flag.Int64("seed", 11, "root random seed")
		peers    = flag.Int("peers", 50, "number of mobile peers")
		simTime  = flag.Duration("simtime", 25*time.Minute, "simulated duration")
		update   = flag.Duration("update", 2*time.Minute, "mean update interval")
		query    = flag.Duration("query", 20*time.Second, "mean query interval")

		policy   = flag.String("policy", "", "cache replacement policy: lru | lfu | ttl | utility (empty = lru)")
		cacheNum = flag.Int("cache", 0, "cache capacity per peer (0 = strategy default)")
		zipf     = flag.Bool("zipf", false, "Zipf-skewed item popularity instead of the default cached-domain mix")
		hotspot  = flag.String("hotspot", "", "flash-crowd hotspot start,duration,item,weight (empty disables)")
		diurnal  = flag.String("diurnal", "", "diurnal load modulation period,min-level (empty disables)")

		faultsFile = flag.String("faults", "", "JSON fault campaign (empty: the demonstration campaign for -peers)")

		sweep      = flag.Int("sweep", 1, "run the campaign across this many seeds (seed..seed+N-1) on the fleet")
		parallel   = flag.Int("parallel", 0, "concurrent sweep runs (0 = all cores)")
		detail     = flag.Bool("detail", false, "print the per-kind traffic breakdown")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text metrics to this file (merged across a sweep)")
		traceOut   = flag.String("trace-out", "", "write the causal trace (span JSONL, injected faults included) to this file (requires -sweep 1)")
	)
	flag.Parse()

	cfg := experiment.DefaultConfig(experiment.StrategyKind(*strategy), *seed)
	cfg.NPeers = *peers
	cfg.SimTime = *simTime
	cfg.UpdateInterval = *update
	cfg.QueryInterval = *query
	cfg.CachePolicy = cache.PolicyKind(*policy)
	if *cacheNum > 0 {
		cfg.CacheNum = *cacheNum
	}
	if *zipf {
		cfg.Popularity = workload.PopularityZipf
	}
	if *hotspot != "" {
		hs, err := parseHotspot(*hotspot)
		if err != nil {
			return err
		}
		cfg.Hotspots = []workload.Hotspot{hs}
	}
	if *diurnal != "" {
		period, min, err := parseDiurnal(*diurnal)
		if err != nil {
			return err
		}
		cfg.DiurnalPeriod = period
		cfg.DiurnalMin = min
	}

	cfg.Faults = faults.Demo(*peers)
	if *faultsFile != "" {
		fc, err := faults.LoadScript(*faultsFile)
		if err != nil {
			return err
		}
		cfg.Faults = *fc
	}
	if cfg.Faults.IsZero() {
		return fmt.Errorf("the campaign injects and audits nothing")
	}

	if *sweep > 1 {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out records one run's causal trace; use -sweep 1")
		}
		return runSweep(cfg, *sweep, *parallel, *metricsOut)
	}

	hub := telemetry.NewHub(telemetry.LevelMetrics)

	// A deterministic simulation cannot stop midway, so the first
	// interrupt defers: the run finishes and every sink flushes. A second
	// interrupt gets the default fatal behaviour back.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "chaos: interrupt — finishing the run so metrics and trace flush (interrupt again to abort)")
			signal.Stop(sigc)
		}
	}()

	start := time.Now()
	var res experiment.Result
	var spans []ctrace.Span
	var err error
	if *traceOut != "" {
		res, spans, err = experiment.RunWithTrace(cfg, hub)
	} else {
		res, err = experiment.RunWithTelemetry(cfg, hub)
	}
	if err != nil {
		return err
	}
	// Wall time goes to stderr: stdout must be a pure function of the
	// seed so chaos-smoke can byte-compare two runs.
	fmt.Fprintf(os.Stderr, "chaos: simulated %v of %d peers in %v wall time\n",
		cfg.SimTime, cfg.NPeers, time.Since(start).Round(time.Millisecond))
	if *detail {
		fmt.Print(experiment.RenderDetail(res))
	} else {
		fmt.Println(res)
	}
	fmt.Println(res.Faults)

	if *metricsOut != "" {
		if err := telemetry.WritePrometheusFile(*metricsOut, res.Telemetry); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := ctrace.WriteFile(*traceOut, spans); err != nil {
			return err
		}
	}
	if !res.Faults.Passed() {
		return fmt.Errorf("invariant audit failed")
	}
	return nil
}

// runSweep runs the same campaign across consecutive seeds on the fleet
// pool, printing one verdict line per seed. Any violated invariant (or
// failed run) fails the sweep.
func runSweep(base experiment.Config, sweep, parallel int, metricsOut string) error {
	jobs := make([]fleet.Job, sweep)
	for i := range jobs {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		jobs[i] = fleet.Job{Key: cfg.Key(), Config: cfg}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	frep, runErr := fleet.Run(ctx, jobs, fleet.Options{Parallel: parallel, Progress: os.Stderr})
	fleet.ReportFailures(os.Stderr, frep.Records)

	failed := 0
	var merged *telemetry.Snapshot
	for _, rec := range frep.Records {
		if rec.Status != fleet.StatusOK {
			fmt.Printf("seed %-3d %s: %s\n", rec.Seed, rec.Status, rec.Error)
			failed++
			continue
		}
		res := rec.Result
		fmt.Printf("seed %-3d %s\n", rec.Seed, res.Faults)
		if !res.Faults.Passed() {
			failed++
		}
		if metricsOut != "" && res.Telemetry != nil {
			if merged == nil {
				merged = res.Telemetry
			} else if err := merged.Merge(res.Telemetry); err != nil {
				return fmt.Errorf("merge telemetry for seed %d: %w", rec.Seed, err)
			}
		}
	}
	// Flush the merged metrics of every completed run even when the sweep
	// was interrupted — partial telemetry beats none.
	if metricsOut != "" && merged != nil {
		if err := telemetry.WritePrometheusFile(metricsOut, merged); err != nil {
			return err
		}
	}
	if runErr != nil {
		return fmt.Errorf("sweep interrupted (%d/%d runs completed): %w",
			frep.Executed, len(frep.Records), runErr)
	}
	fmt.Printf("\nsweep: %d seeds, %d failed, %v wall (%.2f runs/s)\n",
		sweep, failed, frep.Wall.Round(time.Millisecond), frep.RunsPerSec())
	if failed > 0 {
		return fmt.Errorf("%d of %d campaign runs violated invariants or failed", failed, sweep)
	}
	return nil
}

// parseHotspot reads a "start,duration,item,weight" flash-crowd window.
func parseHotspot(s string) (workload.Hotspot, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return workload.Hotspot{}, fmt.Errorf("-hotspot: want start,duration,item,weight, got %q", s)
	}
	start, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return workload.Hotspot{}, fmt.Errorf("-hotspot: %v", err)
	}
	dur, err := time.ParseDuration(strings.TrimSpace(parts[1]))
	if err != nil {
		return workload.Hotspot{}, fmt.Errorf("-hotspot: %v", err)
	}
	item, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return workload.Hotspot{}, fmt.Errorf("-hotspot: %v", err)
	}
	weight, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil {
		return workload.Hotspot{}, fmt.Errorf("-hotspot: %v", err)
	}
	return workload.Hotspot{Start: start, Duration: dur, Item: data.ItemID(item), Weight: weight}, nil
}

// parseDiurnal reads a "period,min-level" load modulation pair.
func parseDiurnal(s string) (time.Duration, float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-diurnal: want period,min-level, got %q", s)
	}
	period, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("-diurnal: %v", err)
	}
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-diurnal: %v", err)
	}
	return period, min, nil
}
