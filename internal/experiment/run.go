package experiment

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

// Result is everything one simulation run reports.
type Result struct {
	Strategy StrategyKind
	Config   Config

	// Traffic (the y-axis of Fig 7 and 9a).
	TotalTx    uint64
	TotalBytes uint64
	TxPerHour  float64
	ByKind     []stats.KindCount

	// Latency (the y-axis of Fig 8 and 9b).
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration

	// Query accounting.
	Issued   uint64
	Answered uint64
	Failed   uint64

	// Consistency audit.
	Violations    uint64
	TornAnswers   uint64
	FutureAnswers uint64
	MeanStaleness time.Duration
	MaxStaleness  time.Duration

	// RPCC extras.
	RelayCount   int
	RoleCache    int
	RoleCand     int
	RoleRelay    int
	PollDirect   uint64
	PollRing     uint64
	PollFallback uint64
	RelayForgets uint64

	// Cache behaviour.
	MeanHitRatio float64

	// Energy (the paper's §1 motivates message savings with battery
	// life): total abstract energy units drained across all hosts, the
	// lowest remaining battery fraction at the end of the run, and
	// Jain's fairness index over per-host drain — the load-balance
	// question RPCC's CE criterion exists to manage (1 = perfectly even,
	// 1/n = one host carries everything).
	EnergyDrained  float64
	MinBatteryCE   float64
	EnergyFairness float64

	// TrafficTimeline is the total transmission count sampled in 60
	// equal windows across the run — warm-up versus steady state at a
	// glance.
	TrafficTimeline []uint64

	// Telemetry is the run's metrics snapshot (nil when the run executed
	// with telemetry off). Snapshots from replica runs merge with
	// (*telemetry.Snapshot).Merge.
	Telemetry *telemetry.Snapshot

	// Faults is the invariant audit of the run's fault campaign (nil when
	// Config.Faults is zero).
	Faults *faults.Report
}

// Run executes one scenario to completion and returns its metrics. It
// records aggregate telemetry internally; use RunWithTelemetry to run
// with a hub of the caller's, or none.
func Run(cfg Config) (Result, error) {
	_, res, err := run(cfg)
	return res, err
}

// RunWithTelemetry executes one scenario with the caller's telemetry hub
// installed across the stack (netsim tracer, chassis, strategy counters,
// fault plane). A nil hub disables telemetry entirely. The hub is
// finalized (traffic and sim-clock folded in) before the function
// returns, so the caller may export it immediately.
func RunWithTelemetry(cfg Config, hub *telemetry.Hub) (Result, error) {
	_, res, err := run(cfg, WithHub(hub))
	return res, err
}

// RunWithTrace executes one scenario with causal tracing enabled and
// returns, alongside the result, the run's span set in canonical
// (StartNs, Region, Seq) order — ready for trace.WriteJSONL or
// trace.ExtractCriticalPaths. Tracing observes the run without touching
// it: the result is byte-identical to an untraced same-seed run, and the
// span set itself is deterministic for a given config. A fault campaign's
// injected faults are recorded as fault roots.
func RunWithTrace(cfg Config, hub *telemetry.Hub) (Result, []ctrace.Span, error) {
	tracer := ctrace.NewCollector(0)
	_, res, err := run(cfg, WithHub(hub), WithTracer(tracer))
	if err != nil {
		return Result{}, nil, err
	}
	return res, tracer.Export(), nil
}

// run is one scenario's whole life: it builds the World (with a metrics
// hub unless opts set one), starts its workload, installs a non-zero
// fault campaign, runs it to the horizon, timing that into w.busy, and
// finishes it. Beside the Result it returns the finished World, for the
// callers that read more of it (RunScale's regions).
func run(cfg Config, opts ...Option) (*World, Result, error) {
	w, err := Build(cfg, append([]Option{WithHub(telemetry.NewHub(telemetry.LevelMetrics))}, opts...)...)
	if err != nil {
		return nil, Result{}, err
	}
	if err := w.startScenario(); err != nil {
		return nil, Result{}, err
	}
	if !cfg.Faults.IsZero() {
		if err := w.installFaults(); err != nil {
			return nil, Result{}, err
		}
	}
	t0 := time.Now()
	w.RunUntil(cfg.SimTime)
	w.busy = time.Since(t0)
	return w, w.Finish(), nil
}

// startScenario adds what a batch run puts on a built World: the warm
// placement, the strategy's start, the workload with its per-query
// consistency levels, and the traffic timeline.
func (w *World) startScenario() error {
	cfg, k := w.Config, w.K
	levelFor := levelSelector(cfg, k)
	var domains [][]data.ItemID
	if cfg.WarmCaches {
		var err error
		if domains, err = w.warmCaches(); err != nil {
			return err
		}
	}
	if err := w.Start(); err != nil {
		return err
	}

	wlCfg := workload.Config{
		Hosts:           cfg.NPeers,
		MeanQueryEvery:  cfg.QueryInterval,
		MeanUpdateEvery: cfg.UpdateInterval,
		Popularity:      cfg.Popularity,
		Hotspots:        cfg.Hotspots,
		DiurnalPeriod:   cfg.DiurnalPeriod,
		DiurnalMin:      cfg.DiurnalMin,
	}
	if cfg.Popularity == workload.PopularityCached {
		if domains == nil {
			return fmt.Errorf("experiment: cached-domain workload requires WarmCaches")
		}
		wlCfg.Domain = func(host int) []data.ItemID { return domains[host] }
	}
	strat := w.Strategy
	wl, err := workload.NewGenerator(wlCfg,
		func(kk *sim.Kernel, host int, item data.ItemID) {
			strat.OnQuery(kk, host, item, levelFor(host, item))
		},
		func(kk *sim.Kernel, host int) {
			strat.OnUpdate(kk, host)
		},
	)
	if err != nil {
		return err
	}
	wl.AttachTelemetry(w.Hub)
	wl.Start(k)

	// Sample the traffic total in 60 windows for the timeline.
	traffic := w.Net.Traffic()
	w.timeline = make([]uint64, 0, 60)
	var lastTx uint64
	_, _ = k.Every(cfg.SimTime/60, "experiment.timeline", func(*sim.Kernel) {
		cur := traffic.TotalTx()
		w.timeline = append(w.timeline, cur-lastTx)
		lastTx = cur
	})
	return nil
}

// levelSelector returns the consistency level each query of the strategy
// requests: the baselines and RPCC-SC strong, RPCC-DC Δ, RPCC-WC weak,
// and the hybrid workload the three with equal probability.
func levelSelector(cfg Config, k *sim.Kernel) func(host int, item data.ItemID) consistency.Level {
	level := consistency.LevelStrong
	switch cfg.Strategy {
	case StrategyRPCCDC:
		level = consistency.LevelDelta
	case StrategyRPCCWC:
		level = consistency.LevelWeak
	case StrategyRPCCHY:
		rng := k.Stream("experiment.levels")
		levels := []consistency.Level{
			consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak,
		}
		return func(int, data.ItemID) consistency.Level {
			return levels[rng.Intn(len(levels))]
		}
	}
	return func(int, data.ItemID) consistency.Level { return level }
}

// chaosSweepEvery is the invariant-audit period during chaos campaigns:
// fine enough to catch transient version regressions, coarse enough that
// the sweep itself stays invisible in the profile.
const chaosSweepEvery = 5 * time.Second

// installFaults wires the scenario's fault campaign into the started
// World: the invariant auditor first — its heal callback must be
// registered before the plane schedules anything against it — then the
// plane. Validate admits a campaign only for RPCC strategies, so the
// engine is set.
func (w *World) installFaults() error {
	fc := w.Config.Faults
	plane, err := faults.NewPlane(fc, faults.Env{
		Net: w.Net, Churn: w.Churn, Stores: w.Stores,
		Engine: w.Engine, Hub: w.Hub, Tracer: w.Tracer,
	})
	if err != nil {
		return err
	}
	aud, err := faults.NewAuditor(faults.AuditorConfig{
		SweepEvery:        chaosSweepEvery,
		RepairWindow:      fc.RepairWindow.D(),
		TTN:               coreConfigFrom(w.Config).TTN,
		StrongStaleBudget: fc.StrongStaleBudget,
	}, w.Reg, w.Stores, w.Churn, w.Engine, w.Chassis.Auditor)
	if err != nil {
		return err
	}
	if err := aud.Install(w.K, plane); err != nil {
		return err
	}
	w.faults = aud
	return plane.Install(w.K)
}

// publishTopologyStats exposes netsim's topology-maintenance counters as
// telemetry: how snapshots were produced (full rebuild vs kinetic
// sample), the kinetic machinery behind them (exact pair tests, Verlet
// re-anchorings, link make/break events) and what happened to route state
// at each sample. The pair tests keep the cert_check label, the event the
// certificate plane's exact tests were counted under, so the benchmark's
// netsim.cert_checks still reads the plane's distance tests. Counter
// handles are nil-safe, so a nil hub is a no-op.
func publishTopologyStats(hub *telemetry.Hub, s netsim.TopologyStats) {
	snapshots := func(mode string) *telemetry.Counter {
		return hub.Counter("rpcc_topology_snapshots_total",
			"Topology snapshots by production mode.", telemetry.Label{Key: "mode", Value: mode})
	}
	snapshots("full_rebuild").Add(s.FullRebuilds)
	snapshots("kinetic_sample").Add(s.KineticSamples)

	links := func(dir string) *telemetry.Counter {
		return hub.Counter("rpcc_topology_link_events_total",
			"Kinetic link make/break events.", telemetry.Label{Key: "dir", Value: dir})
	}
	links("make").Add(s.LinkMakes)
	links("break").Add(s.LinkBreaks)

	kinetic := func(event string) *telemetry.Counter {
		return hub.Counter("rpcc_topology_kinetic_work_total",
			"Kinetic maintenance events processed.", telemetry.Label{Key: "event", Value: event})
	}
	kinetic("cert_check").Add(s.PairTests)
	kinetic("rebin").Add(s.Rebins)

	routes := func(outcome string) *telemetry.Counter {
		return hub.Counter("rpcc_topology_route_maintenance_total",
			"Route-table outcomes: stale tables repaired or abandoned on demand when next read.", telemetry.Label{Key: "outcome", Value: outcome})
	}
	routes("repaired").Add(s.RoutesRepaired)
	routes("dropped").Add(s.RoutesDropped)
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over xs,
// returning 1 for an empty or all-zero load.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// warmCaches pre-populates the placement the paper's model assumes — in
// single-item mode every peer caches item 0; otherwise each node caches
// CacheNum items drawn uniformly from the others' — and returns each
// host's placed item set, which doubles as its query domain under
// PopularityCached. A host's draws are placed as one batch (Warm).
func (w *World) warmCaches() ([][]data.ItemID, error) {
	cfg := w.Config
	rng := w.K.Stream("experiment.warm")
	// Every host's domain is carved from one array of CacheNum slots each.
	slots := make([]data.ItemID, cfg.NPeers*cfg.CacheNum)
	domains := make([][]data.ItemID, cfg.NPeers)
	for host := range domains {
		lo := host * cfg.CacheNum
		domains[host] = slots[lo : lo : lo+cfg.CacheNum]
	}
	if cfg.Popularity == workload.PopularitySingle {
		for host := 1; host < cfg.NPeers; host++ {
			domains[host] = append(domains[host], 0)
			if err := w.Warm(host, 0); err != nil {
				return nil, err
			}
		}
		return domains, nil
	}
	// drawnFor[item] == host+1 marks item as already drawn for host (the
	// host's own item included), so one array serves every host.
	drawnFor := make([]int32, cfg.NPeers)
	for host := 0; host < cfg.NPeers; host++ {
		mark := int32(host + 1)
		drawnFor[host] = mark
		for seen := 1; seen <= cfg.CacheNum && seen < cfg.NPeers; {
			item := rng.Intn(cfg.NPeers)
			if drawnFor[item] == mark {
				continue
			}
			drawnFor[item] = mark
			seen++
			domains[host] = append(domains[host], data.ItemID(item))
		}
		if err := w.Warm(host, domains[host]...); err != nil {
			return nil, err
		}
	}
	return domains, nil
}

// Finish has every ledger publish into the hub — traffic, the
// topology-maintenance counters, the chassis's queries and audit
// verdicts, the engine's poll ladder — stamps the sim clock, then
// collects the run's Result. Call exactly once, after the run.
func (w *World) Finish() Result {
	traffic, lat, aud := w.Net.Traffic(), w.Chassis.Latency, w.Chassis.Auditor
	w.Hub.AttachTraffic(traffic)
	publishTopologyStats(w.Hub, w.Net.TopologyStats())
	w.Chassis.Publish()
	if w.Engine != nil {
		w.Engine.Publish()
	}
	w.Hub.Finish(w.K.Now())

	r := Result{
		Strategy:        w.Config.Strategy,
		Config:          w.Config,
		TotalTx:         traffic.TotalTx(),
		TotalBytes:      traffic.TotalBytes(),
		ByKind:          traffic.Snapshot(),
		MeanLatency:     lat.Mean(),
		P50Latency:      lat.Quantile(0.5),
		P99Latency:      lat.Quantile(0.99),
		MaxLatency:      lat.Max(),
		Issued:          w.Chassis.Issued(),
		Answered:        w.Chassis.Answered(),
		Failed:          w.Chassis.Failed(),
		Violations:      aud.TotalViolations(),
		TornAnswers:     aud.Violations(consistency.ViolationTorn),
		FutureAnswers:   aud.Violations(consistency.ViolationFuture),
		MeanStaleness:   aud.MeanStaleness(),
		MaxStaleness:    aud.MaxStaleness(),
		TrafficTimeline: w.timeline,
		Telemetry:       w.Hub.Snapshot(),
		MinBatteryCE:    1,
	}
	if hours := w.Config.SimTime.Hours(); hours > 0 {
		r.TxPerHour = float64(r.TotalTx) / hours
	}
	if e := w.Engine; e != nil {
		r.RelayCount = e.RelayCount()
		r.PollDirect, r.PollRing, r.PollFallback, r.RelayForgets = e.PollStats()
		r.RoleCache, r.RoleCand, r.RoleRelay = e.RoleCounts()
	}
	for _, s := range w.Stores {
		r.MeanHitRatio += s.HitRatio()
	}
	r.MeanHitRatio /= float64(len(w.Stores))

	capacity := energy.DefaultConfig().Capacity
	drains := make([]float64, 0, len(w.Batteries))
	for _, b := range w.Batteries {
		ce := b.CE(w.K.Now())
		drain := capacity * (1 - ce)
		drains = append(drains, drain)
		r.EnergyDrained += drain
		if ce < r.MinBatteryCE {
			r.MinBatteryCE = ce
		}
	}
	r.EnergyFairness = jainIndex(drains)
	if w.faults != nil {
		rep := w.faults.Finish()
		r.Faults = &rep
	}
	return r
}

// AnswerRate returns the fraction of issued queries answered.
func (r Result) AnswerRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Answered) / float64(r.Issued)
}

// String summarises the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s: tx=%d (%.0f/h) lat(mean=%v p99=%v) answered=%d/%d viol=%d",
		r.Strategy, r.TotalTx, r.TxPerHour, r.MeanLatency, r.P99Latency,
		r.Answered, r.Issued, r.Violations)
}
