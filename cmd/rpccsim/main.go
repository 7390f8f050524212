// Command rpccsim runs one cache-consistency simulation scenario and
// prints its metrics. Every Table 1 parameter of the paper is exposed as
// a flag; the defaults reproduce the paper's setup.
//
// With -replicas N the scenario runs N times with seeds seed..seed+N-1
// (concurrently, through the fleet orchestrator) and the report adds
// across-seed means with standard deviations and 95% confidence
// intervals.
//
// Examples:
//
//	rpccsim -strategy rpcc-sc
//	rpccsim -strategy pull -simtime 1h -seed 3
//	rpccsim -strategy rpcc-sc -invttl 7 -single
//	rpccsim -strategy rpcc-sc -simtime 1h -replicas 8 -parallel 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/fleet"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rpccsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		strategy   = flag.String("strategy", "rpcc-sc", "pull | push | rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
		seed       = flag.Int64("seed", 1, "root random seed")
		peers      = flag.Int("peers", 50, "number of mobile peers (N_Peers)")
		area       = flag.Float64("area", 1500, "square terrain side in metres (T_Area)")
		cacheNum   = flag.Int("cachenum", 10, "cache entries per host (C_Num)")
		rng        = flag.Float64("range", 250, "radio range in metres (C_Range)")
		simTime    = flag.Duration("simtime", 5*time.Hour, "simulated duration (T_Sim)")
		update     = flag.Duration("update", 2*time.Minute, "mean update interval (I_Update)")
		query      = flag.Duration("query", 20*time.Second, "mean query interval (I_Query)")
		brTTL      = flag.Int("brttl", 8, "broadcast TTL for push/pull and fallbacks (TTL_BR)")
		invTTL     = flag.Int("invttl", 3, "RPCC invalidation TTL")
		ttn        = flag.Duration("ttn", 2*time.Minute, "source broadcast interval (TTN_OP)")
		ttr        = flag.Duration("ttr", 90*time.Second, "relay freshness window (TTR_RP)")
		ttp        = flag.Duration("ttp", 4*time.Minute, "cache Δ window (TTP_CP)")
		swi        = flag.Duration("switch", 5*time.Minute, "mean connected dwell (I_Switch)")
		noChurn    = flag.Bool("nochurn", false, "disable disconnection/reconnection churn")
		single     = flag.Bool("single", false, "Fig 9 scenario: one source, its item cached by all peers")
		detail     = flag.Bool("detail", true, "print the per-kind traffic breakdown")
		useDSR     = flag.Bool("dsr", false, "route unicasts with DSR-style discovery instead of the oracle")
		loss       = flag.Float64("loss", 0, "per-reception link loss probability [0,1)")
		replicas   = flag.Int("replicas", 1, "independent seeds (seed..seed+N-1), run concurrently and aggregated")
		parallel   = flag.Int("parallel", 0, "concurrent replica runs (0 = all cores)")
		metricsOut = flag.String("metrics-out", "", "write Prometheus text metrics to this file (merged across replicas)")
		traceOut   = flag.String("trace-out", "", "write the causal trace (span JSONL) to this file (requires -replicas 1)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := telemetry.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rpccsim: pprof on http://%s/debug/pprof/\n", addr)
		defer telemetry.StartRuntimeStats(os.Stderr, 10*time.Second)()
	}

	cfg := experiment.DefaultConfig(experiment.StrategyKind(*strategy), *seed)
	cfg.NPeers = *peers
	cfg.AreaWidth, cfg.AreaHeight = *area, *area
	cfg.CacheNum = *cacheNum
	cfg.CommRange = *rng
	cfg.SimTime = *simTime
	cfg.UpdateInterval = *update
	cfg.QueryInterval = *query
	cfg.BroadcastTTL = *brTTL
	cfg.InvalidationTTL = *invTTL
	cfg.TTN, cfg.TTR, cfg.TTP = *ttn, *ttr, *ttp
	cfg.SwitchInterval = *swi
	cfg.ChurnDisabled = *noChurn
	if *single {
		cfg.Popularity = workload.PopularitySingle
	}
	cfg.UseDSRRouting = *useDSR
	cfg.LossRate = *loss

	if *replicas > 1 {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out records one run's causal trace; use -replicas 1")
		}
		return runReplicated(cfg, *replicas, *parallel, *metricsOut)
	}

	hub := telemetry.NewHub(telemetry.LevelMetrics)

	start := time.Now()
	var res experiment.Result
	var err error
	if *traceOut != "" {
		var spans []ctrace.Span
		res, spans, err = experiment.RunWithTrace(cfg, hub)
		if err != nil {
			return err
		}
		if werr := ctrace.WriteFile(*traceOut, spans); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "rpccsim: %d spans -> %s\n", len(spans), *traceOut)
	} else {
		res, err = experiment.RunWithTelemetry(cfg, hub)
		if err != nil {
			return err
		}
	}
	fmt.Printf("simulated %v of %d peers in %v wall time\n\n", cfg.SimTime, cfg.NPeers, time.Since(start).Round(time.Millisecond))
	if *detail {
		fmt.Print(experiment.RenderDetail(res))
	} else {
		fmt.Println(res)
	}
	if *metricsOut != "" {
		if err := telemetry.WritePrometheusFile(*metricsOut, res.Telemetry); err != nil {
			return err
		}
	}
	return nil
}

// runReplicated runs the scenario once per seed on the fleet and prints
// per-seed one-liners plus the across-seed aggregate with spread. When
// metricsOut is set the per-run telemetry snapshots are merged and
// written in Prometheus text format.
func runReplicated(base experiment.Config, replicas, parallel int, metricsOut string) error {
	jobs := make([]fleet.Job, replicas)
	for i := range jobs {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		jobs[i] = fleet.Job{Key: cfg.Key(), Config: cfg}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := fleet.Run(ctx, jobs, fleet.Options{Parallel: parallel, Progress: os.Stderr})
	if err != nil {
		return err
	}
	fleet.ReportFailures(os.Stderr, rep.Records)

	results := make([]experiment.Result, 0, replicas)
	var merged *telemetry.Snapshot
	for _, rec := range rep.Records {
		if rec.Status != fleet.StatusOK {
			continue
		}
		res, _ := rep.Result(rec.Key)
		fmt.Printf("seed %-3d %v\n", rec.Seed, res)
		results = append(results, res)
		if metricsOut != "" && res.Telemetry != nil {
			if merged == nil {
				merged = res.Telemetry
			} else if err := merged.Merge(res.Telemetry); err != nil {
				return fmt.Errorf("merge telemetry for seed %d: %w", rec.Seed, err)
			}
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("all %d replicas failed", replicas)
	}
	if metricsOut != "" {
		if err := telemetry.WritePrometheusFile(metricsOut, merged); err != nil {
			return err
		}
	}

	s := experiment.Aggregate(results)
	fmt.Printf("\nsimulated %v of %d peers × %d seeds on %d workers in %v wall time (%.2f runs/s)\n\n",
		base.SimTime, base.NPeers, len(results), rep.Workers, rep.Wall.Round(time.Millisecond), rep.RunsPerSec())
	fmt.Printf("across seeds (mean ± stddev, ±95%% CI):\n")
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
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d replicas failed", rep.Failed, replicas)
	}
	return nil
}
