// Command wiretest boots an N-node loopback UDP cluster of live rpcc
// daemons (internal/wire/cluster), drives each node's workload for a
// wall-clock duration, and judges every served answer against the
// differential oracle's staleness envelopes. Exit status is non-zero
// when any divergence is found, when shutdown is unclean, or when the
// cluster served nothing (a vacuously "clean" run) — so the command
// doubles as the `make wire-smoke` CI gate.
//
// Chaos campaign mode (-chaos, or -faults campaign.json: the JSON schema
// cmd/chaos and rpccd read) runs the same cluster under the wire chaos
// plane: Gilbert–Elliott loss, delay/jitter/duplication, partition
// windows, and daemon crash/restart churn, judged by the fault-aware live
// oracle. In chaos mode stdout carries only the deterministic verdict
// block (the `make wire-chaos-smoke` gate byte-compares it across
// same-seed runs) and the nondeterministic per-run counts go to stderr;
// -schedule-out writes the expanded fault schedule, which is
// byte-identical across runs by construction. -broken inflation judges
// the run blind to the fault schedule — the deliberately broken variant
// the gate requires the judge to catch.
//
// Examples:
//
//	wiretest                      # 5 nodes, 10 s, rpcc-sc
//	wiretest -n 10 -duration 10s  # the acceptance shape
//	wiretest -strategy rpcc-hy -v # mixed levels, per-node detail
//	wiretest -n 10 -duration 20s -strategy rpcc-dc -chaos \
//	         -schedule-out sched.log   # the wire-chaos-smoke shape
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/manetlab/rpcc/internal/faults"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/wire"
	"github.com/manetlab/rpcc/internal/wire/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wiretest:", err)
		os.Exit(1)
	}
}

func run() error {
	def := cluster.DefaultConfig()
	var (
		n        = flag.Int("n", def.N, "number of daemons")
		duration = flag.Duration("duration", def.Duration, "wall-clock run length")
		strategy = flag.String("strategy", def.Strategy, "rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
		seed     = flag.Int64("seed", def.Seed, "workload seed base")
		cacheNum = flag.Int("cachenum", def.CacheNum, "foreign items cached per node")
		query    = flag.Duration("query", def.QueryInterval, "mean query interval per node")
		update   = flag.Duration("update", def.UpdateInterval, "mean update interval per node")
		ttn      = flag.Duration("ttn", def.TTN, "invalidation announcement interval")
		ttr      = flag.Duration("ttr", def.TTR, "relay freshness window")
		ttp      = flag.Duration("ttp", def.TTP, "delta-consistency window")
		coeff    = flag.Duration("coeff", def.CoeffPeriod, "coefficient recomputation period")
		slack    = flag.Duration("slack", def.Slack, "oracle in-flight forgiveness")
		inflate  = flag.Duration("inflate", def.Inflate, "oracle envelope inflation for real-network delay")
		drain    = flag.Duration("drain", def.Drain, "per-daemon shutdown drain deadline")
		traceOut = flag.String("trace-out", "", "enable causal tracing and write the merged span JSONL here")
		verbose  = flag.Bool("v", false, "print per-node summaries and every divergence")

		chaos    = flag.Bool("chaos", false, "run the canonical chaos campaign (loss + partitions + crash/restart churn)")
		faultsIn = flag.String("faults", "", "run under this JSON fault campaign (overrides -chaos)")
		schedOut = flag.String("schedule-out", "", "write the expanded, deterministic fault schedule here")
		broken   = flag.String("broken", "", "deliberately broken judge variant: \"inflation\" judges blind to the fault schedule")
	)
	flag.Parse()

	var script *faults.Config
	switch {
	case *faultsIn != "":
		s, err := faults.LoadScript(*faultsIn)
		if err != nil {
			return err
		}
		script = s
	case *chaos:
		script = wire.DemoScript(*n, *duration, *seed)
	}
	switch *broken {
	case "", "inflation":
	default:
		return fmt.Errorf("unknown -broken variant %q (want \"inflation\")", *broken)
	}
	if *broken != "" && script == nil {
		return fmt.Errorf("-broken needs -chaos or -faults")
	}
	if *schedOut != "" {
		if script == nil {
			return fmt.Errorf("-schedule-out needs -chaos or -faults")
		}
		if err := os.WriteFile(*schedOut, []byte(wire.ScheduleLog(script, *n)), 0o644); err != nil {
			return err
		}
	}

	cfg := cluster.Config{
		N: *n, Strategy: *strategy, Seed: *seed, Duration: *duration, Drain: *drain,
		CacheNum: *cacheNum, QueryInterval: *query, UpdateInterval: *update,
		TTN: *ttn, TTR: *ttr, TTP: *ttp, CoeffPeriod: *coeff,
		Slack: *slack, Inflate: *inflate,
		Trace:          *traceOut != "",
		Chaos:          script,
		BreakInflation: *broken == "inflation",
	}
	rep, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	// In chaos mode stdout is the deterministic verdict block; everything
	// whose value varies run to run (counts, timings, drop totals) goes
	// to stderr so the CI gate can byte-compare stdout across runs.
	detail := os.Stdout
	if script != nil {
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
	if script != nil {
		for cause, v := range rep.Drops {
			fmt.Fprintf(detail, "  dropped[%s]=%d\n", cause, v)
		}
		verdict := "CONFORMANT"
		if !rep.Clean() || rep.Answered == 0 {
			verdict = "DIVERGENT"
		}
		fmt.Printf("wire-chaos: n=%d strategy=%s seed=%d duration=%v partitions=%d crashes=%d\n",
			*n, *strategy, *seed, *duration, len(script.Partitions), len(script.Crashes))
		fmt.Printf("verdict: %s restarts=%d\n", verdict, rep.Restarts)
	}
	if *traceOut != "" {
		if err := ctrace.WriteFile(*traceOut, rep.TraceSpans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans -> %s\n", len(rep.TraceSpans), *traceOut)
	}
	if rep.Answered == 0 {
		return fmt.Errorf("no query was answered in %v — the cluster never exchanged useful traffic", *duration)
	}
	if !rep.Clean() {
		return fmt.Errorf("%d divergences, %d stop errors, %d trace errors",
			len(rep.Divergences), len(rep.StopErrors), len(rep.TraceErrors))
	}
	fmt.Fprintf(detail, "clean: %d answers judged against the %s envelopes (slack=%v inflate=%v), zero divergences\n",
		rep.Judged, rep.Strategy, *slack, *inflate)
	return nil
}
