package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// sizing fixes how much work the workloads and probes do. The full size
// is what BENCHMARK.json is measured at; the toy size keeps the smoke
// test inside `go test`'s patience.
type sizing struct {
	paperSim, paperTraceSim time.Duration // SimTime of one paper50 unit: timed, layer pass
	scaleNodes              int
	scaleSim, scaleTraceSim time.Duration // scale10k
	quietSim, quietTraceSim time.Duration // scale10k-quiet
	setupReps               int           // set-ups per run, at least; setup_s is their median
	setupBudget             time.Duration // a millisecond set-up repeats until this is spent

	wireWarmup      time.Duration // discarded before the measured window
	wireLayerWindow time.Duration // untraced window of the layer pass
	wireTraceWindow time.Duration // traced window of the layer pass

	probeIters int // base iteration count of the layer probes
}

// minUnits is how many identical units a timed run executes at least: the
// second is what the determinism gate compares with the first.
const minUnits = 2

var fullSize = sizing{
	paperSim: 5 * time.Hour, paperTraceSim: time.Hour,
	scaleNodes: 10_000,
	scaleSim:   3 * time.Minute, scaleTraceSim: 20 * time.Second,
	quietSim: 10 * time.Minute, quietTraceSim: 100 * time.Second,
	setupReps: 5, setupBudget: time.Second,
	wireWarmup: 2 * time.Second, wireLayerWindow: 5 * time.Second,
	wireTraceWindow: time.Second,
	probeIters:      100_000,
}

var toySize = sizing{
	paperSim: 5 * time.Minute, paperTraceSim: 5 * time.Minute,
	scaleNodes: 1_000,
	scaleSim:   20 * time.Second, scaleTraceSim: 20 * time.Second,
	quietSim: 20 * time.Second, quietTraceSim: 20 * time.Second,
	setupReps:  2,
	wireWarmup: 50 * time.Millisecond, wireLayerWindow: 150 * time.Millisecond,
	wireTraceWindow: 100 * time.Millisecond,
	probeIters:      1_000,
}

// simWorkload is one simulated workload: the strategies of one unit of
// work, run one after another on a single OS thread of simulation.
type simWorkload struct {
	name       string
	strategies []experiment.StrategyKind
	scale      bool // through experiment.RunScale
	simTime    time.Duration
	traceSim   time.Duration
	tune       func(*experiment.Config)
}

func simWorkloads(sz sizing) []simWorkload {
	scaled := func(stretch time.Duration) func(*experiment.Config) {
		return func(c *experiment.Config) {
			// cmd/scale's resource bounds and Table 1 density.
			c.NPeers = sz.scaleNodes
			c.RouteTableCap = 256
			c.LazyChurnRefresh = true
			c.AreaWidth, c.AreaHeight = scaleSide(sz.scaleNodes), scaleSide(sz.scaleNodes)
			c.QueryInterval *= stretch
			c.UpdateInterval *= stretch
		}
	}
	sc := []experiment.StrategyKind{experiment.StrategyRPCCSC}
	return []simWorkload{
		{name: "paper50-read", strategies: experiment.AllPaperStrategies(),
			simTime: sz.paperSim, traceSim: sz.paperTraceSim,
			tune: func(*experiment.Config) {}},
		{name: "paper50-write", strategies: experiment.AllPaperStrategies(),
			simTime: sz.paperSim, traceSim: sz.paperTraceSim,
			tune: func(c *experiment.Config) {
				c.UpdateInterval = 10 * time.Second
				c.QueryInterval = 2 * time.Minute
			}},
		{name: "scale10k", strategies: sc, scale: true,
			simTime: sz.scaleSim, traceSim: sz.scaleTraceSim, tune: scaled(1)},
		{name: "scale10k-quiet", strategies: sc, scale: true,
			simTime: sz.quietSim, traceSim: sz.quietTraceSim, tune: scaled(10)},
	}
}

// legOut is one strategy's run inside a unit.
type legOut struct {
	strategy experiment.StrategyKind
	res      experiment.Result
	scale    *experiment.ScaleResult
	spans    []ctrace.Span
	wall     time.Duration
}

// unitOut is one unit of work: every strategy of the workload, once.
type unitOut struct {
	legs       []legOut
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
}

func (w simWorkload) runLeg(s experiment.StrategyKind, seed int64, simTime time.Duration, traced bool) (legOut, error) {
	cfg := experiment.DefaultConfig(s, seed)
	cfg.SimTime = simTime
	w.tune(&cfg)
	out := legOut{strategy: s}
	var err error
	start := time.Now()
	switch {
	case w.scale:
		var sr experiment.ScaleResult
		sr, err = experiment.RunScale(experiment.ScaleConfig{Config: cfg, Trace: traced})
		out.res, out.scale, out.spans = sr.Result, &sr, sr.Spans
	case traced:
		out.res, out.spans, err = experiment.RunWithTrace(cfg, telemetry.NewHub(telemetry.LevelMetrics))
	default:
		out.res, err = experiment.Run(cfg)
	}
	out.wall = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", w.name, s, err)
	}
	return out, nil
}

func (w simWorkload) runUnit(seed int64, simTime time.Duration, traced bool, rec *spanRec) (unitOut, error) {
	var u unitOut
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, s := range w.strategies {
		var leg legOut
		var err error
		rec.do("run:"+string(s), func() { leg, err = w.runLeg(s, seed, simTime, traced) })
		if err != nil {
			return u, err
		}
		u.legs = append(u.legs, leg)
	}
	u.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	u.mallocs = m1.Mallocs - m0.Mallocs
	u.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return u, nil
}

// simTotals sums a unit's simulated counters.
type simTotals struct {
	issued, answered, tx, violations uint64
	rpccLatNs                        float64 // answered-weighted over the rpcc-* legs
	rpccAnswered                     uint64
}

func (u unitOut) totals() simTotals {
	var t simTotals
	for _, l := range u.legs {
		t.issued += l.res.Issued
		t.answered += l.res.Answered
		t.tx += l.res.TotalTx
		t.violations += l.res.Violations
		if isRPCC(l.strategy) {
			t.rpccLatNs += float64(l.res.MeanLatency) * float64(l.res.Answered)
			t.rpccAnswered += l.res.Answered
		}
	}
	return t
}

func isRPCC(s experiment.StrategyKind) bool { return strings.HasPrefix(string(s), "rpcc-") }

// fingerprint hashes the simulated counters of a unit. They are a pure
// function of (seed, code), so a change that claims to be behaviourally
// invisible must print the same fingerprint as its parent.
func (u unitOut) fingerprint() string {
	h := sha256.New()
	for _, l := range u.legs {
		fmt.Fprintf(h, "%s %d %d %d %d %d\n", l.strategy,
			l.res.Issued, l.res.Answered, l.res.Failed, l.res.TotalTx, l.res.Violations)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// gate applies the correctness checks to one unit: no torn or future
// answer, no cross-region watermark regression, and the same simulated
// counters as the reference fingerprint. It reports how many legs it
// checked and how many it failed.
func (u unitOut) gate(rep *report, ref, what string) {
	rep.Attempted += len(u.legs)
	bad := 0
	for _, l := range u.legs {
		switch {
		case l.res.TornAnswers != 0 || l.res.FutureAnswers != 0:
			rep.breach("%s %s: torn=%d future=%d answers", what, l.strategy, l.res.TornAnswers, l.res.FutureAnswers)
		case l.scale != nil && l.scale.GossipViolations != 0:
			rep.breach("%s %s: %d gossip violations", what, l.strategy, l.scale.GossipViolations)
		case l.res.Answered == 0:
			rep.breach("%s %s: no query answered", what, l.strategy)
		default:
			continue
		}
		bad++
	}
	if fp := u.fingerprint(); fp != ref {
		rep.breach("%s: simulated counters differ from the first unit (%s vs %s)", what, fp, ref)
		bad = len(u.legs)
	}
	rep.Failed += bad
}

// timed is the --trace 0 run: identical units until the window is spent,
// tracing off, then the set-up repetitions.
func (w simWorkload) timed(seed int64, seconds float64, sz sizing) (*report, error) {
	rep := &report{Values: values{}}
	var units []unitOut
	start := time.Now()
	for len(units) < minUnits || time.Since(start).Seconds() < seconds {
		u, err := w.runUnit(seed, w.simTime, false, nil)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	rss := peakRSSMB()

	rep.Fingerprint = units[0].fingerprint()
	for i, u := range units {
		u.gate(rep, rep.Fingerprint, fmt.Sprintf("unit %d", i))
	}

	setup, err := medianSetup(sz, nil, func() (float64, error) {
		runtime.GC() // the previous run's garbage is not this set-up's cost
		u, err := w.runUnit(seed, time.Millisecond, false, nil)
		return u.wall.Seconds(), err
	})
	if err != nil {
		return nil, err
	}

	t := units[0].totals()
	answered := float64(t.answered)
	var ansRate, txRate, allocs, allocBytes []float64
	for _, u := range units {
		steady := u.wall.Seconds() - setup
		ansRate = append(ansRate, answered/steady)
		txRate = append(txRate, float64(t.tx)/steady)
		allocs = append(allocs, float64(u.mallocs)/answered)
		allocBytes = append(allocBytes, float64(u.allocBytes)/answered)
	}
	v := rep.Values
	v["setup_s"] = setup
	v["answered_per_wall_s"] = median(ansRate)
	v["tx_per_wall_s"] = median(txRate)
	v["peak_rss_mb"] = rss
	v["answer_rate"] = answered / float64(t.issued)
	v["tx_per_answer"] = float64(t.tx) / answered
	v["query_latency_ms"] = t.rpccLatNs / float64(t.rpccAnswered) / 1e6
	v["allocs_per_answer"] = median(allocs)
	v["alloc_bytes_per_answer"] = median(allocBytes)
	return rep, nil
}

// medianSetup repeats one set-up and returns the median of the samples,
// seeded with any the caller already has. For the simulated workloads a
// set-up is the wall of the same configuration with SimTime 1 ms.
func medianSetup(sz sizing, samples []float64, one func() (float64, error)) (float64, error) {
	const maxReps = 51
	var spent float64
	for len(samples) < sz.setupReps || (spent < sz.setupBudget.Seconds() && len(samples) < maxReps) {
		s, err := one()
		if err != nil {
			return 0, err
		}
		samples = append(samples, s)
		spent += s
	}
	return median(samples), nil
}

// layers is the --trace 1 run: one untraced and one traced unit at the
// layer-pass size under the benchmark's own host-time spans, the
// critical-path attribution of the causal trace, and the layer probes.
func (w simWorkload) layers(seed int64, sz sizing, outDir string) (*report, error) {
	rep := &report{Values: values{}}
	rec := newSpanRec(w.name)
	v := rep.Values
	var runErr error
	wallStart := time.Now()
	rec.do("workload", func() {
		var plain, traced unitOut
		setup := rec.do("setup", func() { _, runErr = w.runUnit(seed, time.Millisecond, false, nil) })
		if runErr != nil {
			return
		}
		rec.do("run", func() { plain, runErr = w.runUnit(seed, w.traceSim, false, rec) })
		if runErr != nil {
			return
		}
		rec.do("run-traced", func() { traced, runErr = w.runUnit(seed, w.traceSim, true, rec) })
		if runErr != nil {
			return
		}
		rep.Fingerprint = plain.fingerprint()
		plain.gate(rep, rep.Fingerprint, "untraced unit")
		traced.gate(rep, rep.Fingerprint, "traced unit")

		w.layerValues(v, plain)
		v["telemetry.trace_overhead"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
		v["experiment.setup_share"] = setup.Seconds() / plain.wall.Seconds()
		rec.do("critical-paths", func() {
			// Attribution is for query_latency_ms, so over the rpcc-* legs.
			var spans []ctrace.Span
			for _, l := range traced.legs {
				if isRPCC(l.strategy) {
					spans = append(spans, l.spans...)
				}
			}
			phaseShares(v, spans)
		})
		traced = unitOut{} // release the causal trace before the probes allocate
		v["experiment.rss_kb_per_node"] = peakRSSMB() * 1024 / float64(plain.legs[0].res.Config.NPeers)
		rec.do("probes", func() { runProbes(rep, sz, seed, rec) })
	})
	wall := time.Since(wallStart)
	if runErr != nil {
		return nil, runErr
	}
	return rep, finishSpans(rep, rec, wall, outDir)
}

// layerValues reads the per-layer counts and wall shares a unit already
// returns.
func (w simWorkload) layerValues(v values, u unitOut) {
	wallOf := map[experiment.StrategyKind]string{
		experiment.StrategyRPCCSC: "core.sc_wall_s", experiment.StrategyRPCCDC: "core.dc_wall_s",
		experiment.StrategyRPCCWC: "core.wc_wall_s", experiment.StrategyRPCCHY: "core.hy_wall_s",
		experiment.StrategyPull: "pushpull.pull_wall_s", experiment.StrategyPush: "pushpull.push_wall_s",
	}
	t := u.totals()
	var failed, hit float64
	fails := map[string]float64{}
	for _, l := range u.legs {
		v[wallOf[l.strategy]] = l.wall.Seconds()
		v["core.poll_direct"] += float64(l.res.PollDirect)
		v["core.poll_ring"] += float64(l.res.PollRing)
		v["core.poll_fallback"] += float64(l.res.PollFallback)
		v["core.relay_forgets"] += float64(l.res.RelayForgets)
		v["core.relay_count"] += float64(l.res.RelayCount)
		hit += l.res.MeanHitRatio
		failed += float64(l.res.Failed)

		snap := l.res.Telemetry
		topo := func(family, key, value string) float64 {
			return snap.CounterValue(family, telemetry.Label{Key: key, Value: value})
		}
		v["netsim.full_rebuilds"] += topo("rpcc_topology_snapshots_total", "mode", "full_rebuild")
		v["netsim.kinetic_samples"] += topo("rpcc_topology_snapshots_total", "mode", "kinetic_sample")
		v["netsim.link_events"] += topo("rpcc_topology_link_events_total", "dir", "make") +
			topo("rpcc_topology_link_events_total", "dir", "break")
		v["netsim.cert_checks"] += topo("rpcc_topology_kinetic_work_total", "event", "cert_check")
		v["netsim.rebins"] += topo("rpcc_topology_kinetic_work_total", "event", "rebin")
		v["netsim.routes_repaired"] += topo("rpcc_topology_route_maintenance_total", "outcome", "repaired")
		v["netsim.routes_dropped"] += topo("rpcc_topology_route_maintenance_total", "outcome", "dropped")
		if fam, ok := snap.Family("rpcc_query_failures_total"); ok {
			for _, m := range fam.Metrics {
				for _, lb := range m.Labels {
					if lb.Key == "reason" {
						fails[lb.Value] += m.Value
					}
				}
			}
		}
		if l.scale != nil {
			ks := l.scale.KernelStats
			var events uint64
			for _, sh := range ks.Shards {
				v["sim.shard_busy_s"] += float64(sh.BusyNs) / 1e9
				v["sim.shard_stall_s"] += float64(sh.StallNs) / 1e9
				events += sh.EventsFired
			}
			v["sim.event_imbalance"] = ks.EventImbalance
			v["sim.events_per_wall_s"] = float64(events) / l.wall.Seconds()
		}
	}
	v["cache.hit_ratio"] = hit / float64(len(u.legs))
	if failed > 0 {
		known := 0.0
		for _, r := range failReasons {
			v["node.fail_share."+r] = fails[r] / failed
			known += fails[r]
		}
		v["node.fail_share.other"] = (failed - known) / failed
	}
	v["workload.issued_per_sim_s"] = float64(t.issued) / (w.traceSim.Seconds() * float64(len(u.legs)))
	v["consistency.violation_rate"] = float64(t.violations) / float64(t.answered)
}

// phaseShares attributes the simulated (on the wire: wall) time of the
// answered queries' critical paths to the causal-trace phases. The paths
// are ctrace.ExtractCriticalPaths'; the self times are recomputed with
// every segment clipped to its parent, because a query that joins work
// already in flight (a repair, a relay's queue) gets a child span that
// starts before it, and ctrace.PhaseTotals then books a negative self
// time to the parent and the surplus to the child.
func phaseShares(v values, spans []ctrace.Span) {
	totals := map[string]int64{}
	var sum int64
	queries := 0
	for _, p := range ctrace.ExtractCriticalPaths(spans) {
		if p.Root.Phase != ctrace.PhaseQuery {
			continue
		}
		queries++
		// An open root keeps the bare name "query"; a failed one is renamed.
		if p.Root.Name == "query" || strings.HasPrefix(p.Root.Name, "failed:") {
			continue
		}
		clip := func(s ctrace.Span, lo, hi int64) (int64, int64) {
			a, b := max(s.StartNs, lo), min(s.EndNs, hi)
			return a, max(a, b)
		}
		lo, hi := p.Root.StartNs, p.Root.EndNs
		for i, seg := range p.Segments {
			lo, hi = clip(seg.Span, lo, hi)
			self := hi - lo
			if i+1 < len(p.Segments) {
				a, b := clip(p.Segments[i+1].Span, lo, hi)
				self -= b - a
			}
			totals[seg.Span.Phase] += self
			sum += self
		}
	}
	if sum > 0 {
		for _, ph := range tracePhases {
			v["trace.phase_share."+ph] = float64(totals[ph]) / float64(sum)
		}
	}
	if queries > 0 {
		v["trace.spans_per_query"] = float64(len(spans)) / float64(queries)
	}
}

// finishSpans writes the run's host-time spans and checks that their
// self times account for the measured wall.
func finishSpans(rep *report, rec *spanRec, wall time.Duration, outDir string) error {
	var self int64
	for _, ns := range selfTimes(rec.spans) {
		self += ns
	}
	if d := math.Abs(float64(self)-float64(wall)) / float64(wall); d > 0.01 {
		rep.breach("span self times sum to %v, workload wall is %v", time.Duration(self), wall)
	}
	return rec.write(outDir)
}

// peakRSSMB is the peak resident set size of this program's own address
// space, VmHWM in /proc/self/status. Each run is its own process, so the
// peak is the workload's. ru_maxrss is not used where VmHWM can be read: it
// survives exec, so under `go run` it is never below the go command's own
// ~28 MB, which is more than the small workloads use and varies by a tenth.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
