// Command scale runs one large-population scenario as independent
// kinetic regions and reports, deterministically, what the fleet did.
//
//	scale -nodes 10000 -simtime 60s
//	scale -nodes 100000 -simtime 30s
//
// Regions run on GOMAXPROCS-1 goroutines (with one or two cores: the
// caller's alone, the serial reference). The stdout report is a pure
// function of the flags (sim-derived metrics only), so `make scale-smoke`
// byte-compares a GOMAXPROCS=1 run against a GOMAXPROCS=4 one. Wall-clock
// throughput (nodes simulated per wall-second) and peak RSS go
// to stderr; the measured record is the scale10k workloads of the
// repository benchmark (bench/).
//
// Above -scale-threshold nodes the per-host workload intervals stretch
// proportionally, holding the fleet-wide query/update rate at the Table 1
// scenario's: population scaling probes topology and cache maintenance,
// not an ever-growing query storm.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// workloadScaleThreshold is the population above which per-host workload
// intervals stretch with n.
const workloadScaleThreshold = 1000

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scale:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nodes    = flag.Int("nodes", 10_000, "total peer population")
		simtime  = flag.Duration("simtime", time.Minute, "simulated horizon")
		shards   = flag.Int("shards", 0, "region count (0 = auto)")
		seed     = flag.Int64("seed", 1, "root RNG seed")
		strategy = flag.String("strategy", "rpcc-sc", "consistency strategy")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		traceOut = flag.String("trace-out", "", "write the merged causal trace (span JSONL) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiment.ScaleConfig{
		Config: experiment.DefaultConfig(experiment.StrategyKind(*strategy), *seed),
		Shards: *shards,
		Trace:  *traceOut != "",
	}
	cfg.NPeers = *nodes
	cfg.SimTime = *simtime
	// Scale-run resource bounds: per-destination route tables capped, and
	// churn folded into topology at epoch granularity (forwarding still
	// checks liveness per hop) — at 100k nodes per-flip resampling would
	// dwarf the simulation itself.
	cfg.RouteTableCap = 256
	cfg.LazyChurnRefresh = true
	// Hold terrain density at the Table 1 scenario's by growing the area
	// with the population (the per-region split keeps it; the total must
	// too).
	side := 1500 * math.Sqrt(float64(*nodes)/50.0)
	cfg.AreaWidth = side
	cfg.AreaHeight = side
	if *nodes > workloadScaleThreshold {
		f := time.Duration(*nodes / workloadScaleThreshold)
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
		*nodes, res.Shards, *simtime, *strategy, *seed)
	fmt.Printf("queries: issued=%d answered=%d failed=%d\n", res.Issued, res.Answered, res.Failed)
	fmt.Printf("traffic: tx=%d bytes=%d\n", res.TotalTx, res.TotalBytes)
	fmt.Printf("consistency: violations=%d torn=%d future=%d\n",
		res.Violations, res.TornAnswers, res.FutureAnswers)
	t := res.Topology
	fmt.Printf("topology: full_rebuilds=%d kinetic_samples=%d makes=%d breaks=%d rebins=%d cert_checks=%d\n",
		t.FullRebuilds, t.KineticSamples, t.LinkMakes, t.LinkBreaks, t.Rebins, t.CertChecks)
	fmt.Printf("routes: repaired=%d dropped=%d full_resets=%d\n",
		t.RoutesRepaired, t.RoutesDropped, t.RouteFullResets)
	// Per-region introspection, deterministic half: event counts and the
	// event-imbalance gauge derive from the seed alone.
	ks := res.KernelStats
	fmt.Printf("shards: event_imbalance=%.3f\n", ks.EventImbalance)
	for _, sh := range ks.Shards {
		fmt.Printf("  shard=%d events=%d\n", sh.Shard, sh.EventsFired)
	}

	// Non-deterministic performance report, kept off stdout.
	nodesPerSec := float64(*nodes) / wall.Seconds()
	fmt.Fprintf(os.Stderr, "wall=%.2fs nodes_per_wall_sec=%.1f peak_rss_kb=%d\n",
		wall.Seconds(), nodesPerSec, peakRSSKB())
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

// peakRSSKB returns the process's peak resident set size in KiB
// (ru_maxrss is KiB on Linux).
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}
