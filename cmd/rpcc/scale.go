package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

const scaleSynopsis = `One large-population scenario run as independent kinetic regions, each
built, run and dropped in one call on one of GOMAXPROCS-1 goroutines,
so peak memory is about one region per worker (defaults: 10 000 peers,
1 simulated minute, seed 1). The terrain grows with -peers to hold
Table 1 density; above 1000 peers the per-host workload intervals
stretch with n, keeping the Table 1 fleet-wide query/update rate.
Stdout is a pure function of the flags (make scale-smoke compares
GOMAXPROCS 1 and 4); wall time, throughput and peak RSS go to stderr.

  rpcc scale -peers 10000 -simtime 60s
  rpcc scale -peers 100000 -simtime 30s`

// workloadScaleThreshold is the population above which per-host workload
// intervals stretch with n.
const workloadScaleThreshold = 1000

func scaleCmd(_ context.Context, args []string) error {
	fs := newFlagSet("scale", scaleSynopsis)
	base := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
	base.NPeers, base.SimTime = 10_000, time.Minute
	scenario := scenarioFlags(fs, base, "peers", "seed", "strategy", "simtime")
	var (
		shards   = fs.Int("shards", 0, "region count (0 = auto)")
		traceOut = fs.String("trace-out", "", "write the merged causal trace (span JSONL) to this file")
	)
	profile := profileFlags(fs)
	fs.Parse(args)
	scfg, err := scenario()
	if err != nil {
		return err
	}
	stop, err := profile()
	if err != nil {
		return err
	}
	defer stop()

	cfg := experiment.ScaleConfig{Config: scfg, Shards: *shards, Trace: *traceOut != ""}
	n := cfg.NPeers
	// Scale-run resource bounds: per-destination route tables capped, and
	// churn folded into topology at epoch granularity (forwarding still
	// checks liveness per hop) — at 100k nodes per-flip resampling would
	// dwarf the simulation itself.
	cfg.RouteTableCap = 256
	cfg.LazyChurnRefresh = true
	// Hold terrain density at the Table 1 scenario's by growing the area
	// with the population (the per-region split keeps it; the total must
	// too).
	side := 1500 * math.Sqrt(float64(n)/50.0)
	cfg.AreaWidth = side
	cfg.AreaHeight = side
	if n > workloadScaleThreshold {
		f := time.Duration(n / workloadScaleThreshold)
		cfg.QueryInterval *= f
		cfg.UpdateInterval *= f
	}

	start := time.Now()
	res, err := experiment.RunScale(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	// Deterministic report: everything here derives from the seed.
	fmt.Printf("nodes=%d shards=%d simtime=%v strategy=%s seed=%d\n",
		n, res.Shards, cfg.SimTime, cfg.Strategy, cfg.Seed)
	fmt.Printf("queries: issued=%d answered=%d failed=%d\n", res.Issued, res.Answered, res.Failed)
	fmt.Printf("traffic: tx=%d bytes=%d\n", res.TotalTx, res.TotalBytes)
	fmt.Printf("consistency: violations=%d torn=%d future=%d\n",
		res.Violations, res.TornAnswers, res.FutureAnswers)
	t := res.Topology
	fmt.Printf("topology: full_rebuilds=%d kinetic_samples=%d makes=%d breaks=%d rebins=%d\n",
		t.FullRebuilds, t.KineticSamples, t.LinkMakes, t.LinkBreaks, t.Rebins)
	fmt.Printf("routes: repaired=%d dropped=%d\n", t.RoutesRepaired, t.RoutesDropped)
	// Per-region introspection, deterministic half: event counts and the
	// event-imbalance gauge derive from the seed alone.
	ks := res.KernelStats
	fmt.Printf("shards: event_imbalance=%.3f\n", ks.EventImbalance)
	for _, sh := range ks.Shards {
		fmt.Printf("  shard=%d events=%d\n", sh.Shard, sh.EventsFired)
	}

	// Non-deterministic performance report, kept off stdout.
	fmt.Fprintf(os.Stderr, "wall=%.2fs nodes_per_wall_sec=%.1f peak_rss_kb=%d\n",
		wall.Seconds(), float64(n)/wall.Seconds(), peakRSSKB())
	// Wall-clock half: time inside each region's kernel, and its gap to
	// the slowest region's.
	fmt.Fprintf(os.Stderr, "shards: wall_imbalance=%.3f\n", ks.WallImbalance)
	for _, sh := range ks.Shards {
		fmt.Fprintf(os.Stderr, "  shard=%d busy=%v stall=%v\n",
			sh.Shard, time.Duration(sh.BusyNs), time.Duration(sh.StallNs))
	}

	if *traceOut != "" {
		if err := ctrace.WriteFile(*traceOut, res.Spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans -> %s\n", len(res.Spans), *traceOut)
	}

	// Invariant gate: a scale run that answers nothing or tears an answer
	// is a failure regardless of throughput.
	if res.Answered == 0 {
		return fmt.Errorf("no queries answered")
	}
	if res.TornAnswers != 0 || res.FutureAnswers != 0 {
		return fmt.Errorf("consistency violations: torn=%d future=%d", res.TornAnswers, res.FutureAnswers)
	}
	return nil
}
