// Command chaos runs one RPCC scenario under a deterministic fault
// campaign — network partitions, bursty Gilbert–Elliott loss, node
// crashes, relay assassination, duplication and reordering — while the
// consistency invariants are audited throughout (see internal/faults).
//
// Everything is a pure function of the seed: two runs with identical
// flags produce byte-identical stdout, metrics and causal traces, which
// is what `make chaos-smoke` asserts. The exit status is non-zero when any
// invariant is violated, so the command doubles as a CI soak gate.
//
// Examples:
//
//	chaos                         # demonstration campaign, 25 simulated minutes
//	chaos -seed 7 -gilbert 0.05,0.2,0,0.9
//	chaos -crash "" -assassinate ""   # partitions and loss only
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
	"sync"
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

		split      = flag.Duration("split", 5*time.Minute, "partition start (0 disables the partition)")
		healAt     = flag.Duration("heal-at", 10*time.Minute, "partition heal time")
		islandFrac = flag.Float64("island-frac", 0.5, "fraction of highest-id peers cut into the island")
		gilbert    = flag.String("gilbert", "0.02,0.3,0,0.8", "bursty loss p_g2b,p_b2g,loss_good,loss_bad (empty disables)")
		crash      = flag.String("crash", "18m,7,1m", "crash at,node,restart-after (empty disables; restart 0 = permanent)")
		assassin   = flag.String("assassinate", "15m,3,1,2m", "relay assassination at,item,count,restart-after (empty disables)")
		dup        = flag.Float64("dup", 0.01, "per-delivery duplication probability [0,1)")
		reorder    = flag.Duration("reorder", 5*time.Millisecond, "max extra delivery jitter for reordering")

		repairWin = flag.Duration("repair-window", 6*time.Minute, "heal-convergence audit window (0 disables invariant 3)")
		budget    = flag.Float64("strong-budget", 0.5, "tolerated stale-SC answer fraction [0,1]")

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

	campaign, err := buildCampaign(*peers, *split, *healAt, *islandFrac, *gilbert, *crash, *assassin,
		*dup, *reorder, *repairWin, *budget)
	if err != nil {
		return err
	}

	if *sweep > 1 {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out records one run's causal trace; use -sweep 1")
		}
		return runSweep(cfg, campaign, *sweep, *parallel, *metricsOut)
	}

	hub := telemetry.NewHub(telemetry.LevelMetrics)
	var tracer *ctrace.Collector
	if *traceOut != "" {
		tracer = ctrace.NewCollector(0)
	}

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
	res, rep, err := experiment.RunChaos(cfg, hub, tracer, campaign)
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
	fmt.Println(rep)

	if *metricsOut != "" {
		if err := telemetry.WritePrometheusFile(*metricsOut, res.Telemetry); err != nil {
			return err
		}
	}
	if tracer != nil {
		if err := ctrace.WriteFile(*traceOut, tracer.Export()); err != nil {
			return err
		}
	}
	if !rep.Passed() {
		return fmt.Errorf("invariant audit failed")
	}
	return nil
}

// runSweep runs the same campaign across consecutive seeds on the fleet
// pool, printing one verdict line per seed. Any violated invariant (or
// failed run) fails the sweep.
func runSweep(base experiment.Config, campaign faults.Config, sweep, parallel int, metricsOut string) error {
	jobs := make([]fleet.Job, sweep)
	for i := range jobs {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		jobs[i] = fleet.Job{Key: cfg.Key(), Config: cfg}
	}

	// The fleet executor runs jobs on parallel workers; reports are
	// collected per seed under a lock and joined with records afterwards.
	var mu sync.Mutex
	reports := make(map[int64]faults.Report, sweep)
	execute := func(cfg experiment.Config) (experiment.Result, error) {
		res, rep, err := experiment.RunChaos(cfg, telemetry.NewHub(telemetry.LevelMetrics), nil, campaign)
		if err != nil {
			return res, err
		}
		mu.Lock()
		reports[cfg.Seed] = *rep
		mu.Unlock()
		return res, nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	frep, runErr := fleet.Run(ctx, jobs, fleet.Options{Parallel: parallel, Progress: os.Stderr, Execute: execute})
	fleet.ReportFailures(os.Stderr, frep.Records)

	failed := 0
	var merged *telemetry.Snapshot
	for _, rec := range frep.Records {
		if rec.Status != fleet.StatusOK {
			fmt.Printf("seed %-3d %s: %s\n", rec.Seed, rec.Status, rec.Error)
			failed++
			continue
		}
		rep := reports[rec.Seed]
		fmt.Printf("seed %-3d %s\n", rec.Seed, rep)
		if !rep.Passed() {
			failed++
		}
		if metricsOut != "" {
			if res, ok := frep.Result(rec.Key); ok && res.Telemetry != nil {
				if merged == nil {
					merged = res.Telemetry
				} else if err := merged.Merge(res.Telemetry); err != nil {
					return fmt.Errorf("merge telemetry for seed %d: %w", rec.Seed, err)
				}
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

// buildCampaign assembles the faults.Config from the flag values. Empty
// string flags disable their fault class; validation is delegated to
// faults.Config.Validate via the run entry point.
func buildCampaign(peers int, split, healAt time.Duration, islandFrac float64,
	gilbert, crash, assassin string, dup float64, reorder, repairWin time.Duration,
	budget float64) (faults.Config, error) {
	fc := faults.Config{
		DupProb:           dup,
		ReorderMax:        reorder,
		RepairWindow:      repairWin,
		StrongStaleBudget: budget,
	}

	if split > 0 {
		if islandFrac <= 0 || islandFrac >= 1 {
			return fc, fmt.Errorf("island fraction %g outside (0,1)", islandFrac)
		}
		n := int(float64(peers) * islandFrac)
		if n < 1 {
			n = 1
		}
		island := make([]int, n)
		for i := range island {
			island[i] = peers - n + i
		}
		fc.Partitions = []faults.Partition{{Start: split, End: healAt, Islands: [][]int{island}}}
	}

	if gilbert != "" {
		p, err := parseFloats(gilbert, 4)
		if err != nil {
			return fc, fmt.Errorf("-gilbert: %v", err)
		}
		fc.Loss = &faults.GilbertParams{PGoodToBad: p[0], PBadToGood: p[1], LossGood: p[2], LossBad: p[3]}
	}

	if crash != "" {
		parts := strings.Split(crash, ",")
		if len(parts) != 3 {
			return fc, fmt.Errorf("-crash: want at,node,restart-after, got %q", crash)
		}
		at, err := time.ParseDuration(strings.TrimSpace(parts[0]))
		if err != nil {
			return fc, fmt.Errorf("-crash: %v", err)
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return fc, fmt.Errorf("-crash: %v", err)
		}
		restart, err := time.ParseDuration(strings.TrimSpace(parts[2]))
		if err != nil {
			return fc, fmt.Errorf("-crash: %v", err)
		}
		fc.Crashes = []faults.Crash{{At: at, Node: node, RestartAfter: restart}}
	}

	if assassin != "" {
		parts := strings.Split(assassin, ",")
		if len(parts) != 4 {
			return fc, fmt.Errorf("-assassinate: want at,item,count,restart-after, got %q", assassin)
		}
		at, err := time.ParseDuration(strings.TrimSpace(parts[0]))
		if err != nil {
			return fc, fmt.Errorf("-assassinate: %v", err)
		}
		item, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return fc, fmt.Errorf("-assassinate: %v", err)
		}
		count, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil {
			return fc, fmt.Errorf("-assassinate: %v", err)
		}
		restart, err := time.ParseDuration(strings.TrimSpace(parts[3]))
		if err != nil {
			return fc, fmt.Errorf("-assassinate: %v", err)
		}
		fc.Assassinations = []faults.Assassination{{At: at, Item: data.ItemID(item), Count: count, RestartAfter: restart}}
	}
	return fc, nil
}

// parseFloats splits a comma-separated list into exactly n floats.
func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated values, got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
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
