package main

import (
	"context"
	"fmt"
	"os"

	"github.com/manetlab/rpcc/internal/faults"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/wire"
	"github.com/manetlab/rpcc/internal/wire/cluster"
)

const wireSynopsis = `Boots an N-node loopback UDP cluster of live rpcc daemons, drives each
node's workload for a wall-clock duration, and judges every served
answer against the oracle's staleness envelopes. Non-zero exit on any
divergence, an unclean shutdown, or a cluster that served nothing.

-chaos (or -faults FILE, the campaign schema run and rpccd read) runs
the cluster under the wire chaos plane, judged by the fault-aware live
oracle. Stdout then carries only the deterministic verdict block and
-schedule-out the expanded fault schedule, both byte-identical across
same-seed runs; -broken inflation judges blind to the schedule — the
broken variant the wire-chaos gate requires to be caught.

  rpcc wire -n 10 -duration 10s
  rpcc wire -strategy rpcc-hy -v
  rpcc wire -n 10 -duration 20s -strategy rpcc-dc -chaos -schedule-out sched.log`

func wireCmd(_ context.Context, args []string) error {
	fs := newFlagSet("wire", wireSynopsis)
	cfg := cluster.DefaultConfig()
	fs.IntVar(&cfg.N, "n", cfg.N, "number of daemons")
	fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "wall-clock run length")
	fs.StringVar(&cfg.Strategy, "strategy", cfg.Strategy, "rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "workload seed base")
	fs.IntVar(&cfg.CacheNum, "cachenum", cfg.CacheNum, "foreign items cached per node")
	fs.DurationVar(&cfg.QueryInterval, "query", cfg.QueryInterval, "mean query interval per node")
	fs.DurationVar(&cfg.UpdateInterval, "update", cfg.UpdateInterval, "mean update interval per node")
	fs.DurationVar(&cfg.TTN, "ttn", cfg.TTN, "invalidation announcement interval")
	fs.DurationVar(&cfg.TTR, "ttr", cfg.TTR, "relay freshness window")
	fs.DurationVar(&cfg.TTP, "ttp", cfg.TTP, "delta-consistency window")
	fs.DurationVar(&cfg.CoeffPeriod, "coeff", cfg.CoeffPeriod, "coefficient recomputation period")
	fs.DurationVar(&cfg.Slack, "slack", cfg.Slack, "oracle in-flight forgiveness")
	fs.DurationVar(&cfg.Inflate, "inflate", cfg.Inflate, "oracle envelope inflation for real-network delay")
	fs.DurationVar(&cfg.Drain, "drain", cfg.Drain, "per-daemon shutdown drain deadline")
	var (
		traceOut = fs.String("trace-out", "", "enable causal tracing and write the merged span JSONL here")
		verbose  = fs.Bool("v", false, "print per-node summaries and every divergence")
		chaos    = fs.Bool("chaos", false, "run the canonical chaos campaign (loss + partitions + crash/restart churn)")
		faultsIn = fs.String("faults", "", "run under this JSON fault campaign (overrides -chaos)")
		schedOut = fs.String("schedule-out", "", "write the expanded, deterministic fault schedule here")
		broken   = fs.String("broken", "", "deliberately broken judge variant: \"inflation\" judges blind to the fault schedule")
	)
	fs.Parse(args)

	switch {
	case *faultsIn != "":
		s, err := faults.LoadScript(*faultsIn)
		if err != nil {
			return err
		}
		cfg.Chaos = s
	case *chaos:
		cfg.Chaos = wire.DemoScript(cfg.N, cfg.Duration, cfg.Seed)
	}
	if *broken != "" && *broken != "inflation" {
		return fmt.Errorf("unknown -broken variant %q (want \"inflation\")", *broken)
	}
	if *broken != "" && cfg.Chaos == nil {
		return fmt.Errorf("-broken needs -chaos or -faults")
	}
	if *schedOut != "" {
		if cfg.Chaos == nil {
			return fmt.Errorf("-schedule-out needs -chaos or -faults")
		}
		if err := os.WriteFile(*schedOut, []byte(wire.ScheduleLog(cfg.Chaos, cfg.N)), 0o644); err != nil {
			return err
		}
	}
	cfg.Trace = *traceOut != ""
	cfg.BreakInflation = *broken == "inflation"
	rep, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	// In chaos mode stdout is the deterministic verdict block; everything
	// whose value varies run to run (counts, timings, drop totals) goes
	// to stderr so the CI gate can byte-compare stdout across runs.
	detail := os.Stdout
	if cfg.Chaos != nil {
		detail = os.Stderr
	}
	fmt.Fprintln(detail, rep)
	if *verbose {
		for _, s := range rep.NodeSummaries {
			fmt.Fprintln(detail, " ", s)
		}
	}
	for _, d := range rep.Divergences {
		fmt.Fprintln(detail, "  divergence:", d)
	}
	for _, e := range rep.StopErrors {
		fmt.Fprintln(detail, "  stop error:", e)
	}
	for _, e := range rep.TraceErrors {
		fmt.Fprintln(detail, "  trace error:", e)
	}
	if cfg.Chaos != nil {
		for cause, v := range rep.Drops {
			fmt.Fprintf(detail, "  dropped[%s]=%d\n", cause, v)
		}
		verdict := "CONFORMANT"
		if !rep.Clean() || rep.Answered == 0 {
			verdict = "DIVERGENT"
		}
		fmt.Printf("wire-chaos: n=%d strategy=%s seed=%d duration=%v partitions=%d crashes=%d\n",
			cfg.N, cfg.Strategy, cfg.Seed, cfg.Duration, len(cfg.Chaos.Partitions), len(cfg.Chaos.Crashes))
		fmt.Printf("verdict: %s restarts=%d\n", verdict, rep.Restarts)
	}
	if *traceOut != "" {
		if err := ctrace.WriteFile(*traceOut, rep.TraceSpans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans -> %s\n", len(rep.TraceSpans), *traceOut)
	}
	if rep.Answered == 0 {
		return fmt.Errorf("no query was answered in %v — the cluster never exchanged useful traffic", cfg.Duration)
	}
	if !rep.Clean() {
		return fmt.Errorf("%d divergences, %d stop errors, %d trace errors",
			len(rep.Divergences), len(rep.StopErrors), len(rep.TraceErrors))
	}
	fmt.Fprintf(detail, "clean: %d answers judged against the %s envelopes (slack=%v inflate=%v), zero divergences\n",
		rep.Judged, rep.Strategy, cfg.Slack, cfg.Inflate)
	return nil
}
