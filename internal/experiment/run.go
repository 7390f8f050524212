package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
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
	return RunWithTelemetry(cfg, telemetry.NewHub(telemetry.LevelMetrics))
}

// RunWithTelemetry executes one scenario with the caller's telemetry hub
// installed across the stack (netsim tracer, chassis, strategy counters,
// fault plane). A nil hub disables telemetry entirely. The hub is
// finalized (traffic and sim-clock folded in) before the function
// returns, so the caller may export it immediately.
func RunWithTelemetry(cfg Config, hub *telemetry.Hub) (Result, error) {
	return runScenario(cfg, hub, nil)
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
	res, err := runScenario(cfg, hub, tracer)
	if err != nil {
		return Result{}, nil, err
	}
	return res, tracer.Export(), nil
}

// assembled is one fully wired scenario stack bound to a kernel. The
// serial path assembles one and runs its kernel to the horizon; the
// scale path (scale.go) assembles one per region on the kernels of a
// ShardedKernel, which runs each to the horizon.
type assembled struct {
	cfg       Config
	hub       *telemetry.Hub
	k         *sim.Kernel
	field     *mobility.Field
	churn     *churn.Process
	batteries []*energy.Battery
	net       *netsim.Network
	reg       *data.Registry
	stores    []*cache.Store
	aud       *consistency.Auditor
	lat       *stats.Latency
	traffic   *stats.Traffic
	chassis   *node.Chassis
	strat     Strategy
	tracer    *ctrace.Collector
	timeline  []uint64
	// faults audits the campaign's invariants (nil without a campaign).
	faults *faults.Auditor
}

// runScenario builds and runs one scenario, traced when tracer is
// non-nil. A non-zero fault campaign is installed after the stack is
// assembled and started, before the kernel runs.
func runScenario(cfg Config, hub *telemetry.Hub, tracer *ctrace.Collector) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	k := sim.NewKernel(sim.WithSeed(cfg.Seed), sim.WithHorizon(cfg.SimTime))
	a, err := assembleScenario(cfg, hub, k, tracer)
	if err != nil {
		return Result{}, err
	}
	if !cfg.Faults.IsZero() {
		if err := a.installFaults(); err != nil {
			return Result{}, err
		}
	}
	k.Run()
	return a.finalize(), nil
}

// chaosSweepEvery is the invariant-audit period during chaos campaigns:
// fine enough to catch transient version regressions, coarse enough that
// the sweep itself stays invisible in the profile.
const chaosSweepEvery = 5 * time.Second

// installFaults wires the scenario's fault campaign into the assembled,
// started stack: the invariant auditor first — its heal callback must be
// registered before the plane schedules anything against it — then the
// plane. Validate admits a campaign only for RPCC strategies, so the
// strategy is the core engine.
func (a *assembled) installFaults() error {
	engine, fc := a.strat.(*core.Engine), a.cfg.Faults
	plane, err := faults.NewPlane(fc, faults.Env{
		Net: a.net, Churn: a.churn, Stores: a.stores,
		Engine: engine, Hub: a.hub, Tracer: a.tracer,
	})
	if err != nil {
		return err
	}
	coreCfg := coreConfigFrom(a.cfg)
	aud, err := faults.NewAuditor(faults.AuditorConfig{
		SweepEvery:        chaosSweepEvery,
		RepairWindow:      fc.RepairWindow.D(),
		TTN:               coreCfg.TTN,
		MaxRepairAttempts: coreCfg.MaxRepairAttempts,
		StrongStaleBudget: fc.StrongStaleBudget,
	}, a.reg, a.stores, a.churn, engine, a.aud)
	if err != nil {
		return err
	}
	if err := aud.Install(a.k, plane); err != nil {
		return err
	}
	a.faults = aud
	return plane.Install(a.k)
}

// assembleScenario wires the full stack — terrain, mobility, churn,
// energy, network, data, caches, auditor, chassis, strategy, workload
// and the traffic timeline — onto the caller's kernel, leaving the
// kernel unrun.
// A non-nil tracer threads causal trace contexts through every query and
// protocol message (chassis roots, netsim transit spans).
func assembleScenario(cfg Config, hub *telemetry.Hub, k *sim.Kernel, tracer *ctrace.Collector) (*assembled, error) {
	terrain, err := geo.NewTerrain(cfg.AreaWidth, cfg.AreaHeight)
	if err != nil {
		return nil, err
	}
	mobCfg := mobility.Config{
		Terrain:    terrain,
		MinSpeed:   cfg.MinSpeed,
		MaxSpeed:   cfg.MaxSpeed,
		Pause:      cfg.Pause,
		SubnetCell: cfg.SubnetCell,
	}
	field, err := mobility.NewField(mobCfg, cfg.NPeers, func(i int) *rand.Rand {
		return k.Stream(fmt.Sprintf("mobility.%d", i))
	})
	if err != nil {
		return nil, err
	}

	churnCfg := churn.Config{
		MeanUp:   cfg.SwitchInterval,
		MeanDown: cfg.MeanDown,
		Disabled: cfg.ChurnDisabled,
	}
	churnProc, err := churn.NewProcess(churnCfg, cfg.NPeers, k)
	if err != nil {
		return nil, err
	}

	batteries := make([]*energy.Battery, cfg.NPeers)
	for i := range batteries {
		b, err := energy.NewBattery(energy.DefaultConfig())
		if err != nil {
			return nil, err
		}
		batteries[i] = b
	}

	netCfg := netsim.DefaultConfig()
	netCfg.CommRange = cfg.CommRange
	if cfg.UseDSRRouting {
		netCfg.Routing = netsim.RoutingDSR
	}
	netCfg.LossRate = cfg.LossRate
	netCfg.SerializeTx = cfg.SerializeTx
	netCfg.Kinetic = true
	netCfg.RouteTableCap = cfg.RouteTableCap
	netCfg.LazyChurnRefresh = cfg.LazyChurnRefresh
	traffic := stats.NewTraffic()
	network, err := netsim.New(netCfg, k, field, churnProc, batteries, traffic)
	if err != nil {
		return nil, err
	}

	reg, err := data.NewRegistry(cfg.NPeers)
	if err != nil {
		return nil, err
	}
	// The TTL policy ranks freshness against the scenario's TTP horizon.
	pol, err := cache.NewPolicy(cfg.CachePolicy, cache.PolicyParams{TTL: cfg.TTP})
	if err != nil {
		return nil, err
	}
	stores, err := cache.NewStores(cfg.NPeers, cfg.CacheNum, pol)
	if err != nil {
		return nil, err
	}
	for i := range stores {
		if cfg.CachePolicy == cache.PolicyUtility {
			// Estimate the re-fetch distance to an item's source host
			// geometrically (current positions, one hop per CommRange).
			// Pure function of sim state, so runs stay deterministic.
			node := i
			stores[i].SetHopsHint(func(item data.ItemID) int {
				owner := reg.Owner(item)
				if owner < 0 || owner >= cfg.NPeers || owner == node {
					return 0
				}
				d := field.PeekPosition(node, k.Now()).Dist(field.PeekPosition(owner, k.Now()))
				return int(math.Ceil(d / cfg.CommRange))
			})
		}
	}

	// Slack: in-flight forgiveness covering flood propagation plus the
	// poll round trip at the default hop latency.
	aud, err := consistency.NewAuditor(reg, cfg.TTP, 5*time.Second)
	if err != nil {
		return nil, err
	}
	lat := stats.NewLatency()
	chassis, err := node.NewChassis(node.DefaultConfig(), network, reg, stores, lat, aud)
	if err != nil {
		return nil, err
	}
	chassis.Hub = hub
	if tr := hub.Tracer(); tr != nil {
		network.SetTracer(tr)
	}
	if tracer != nil {
		chassis.Tracer = tracer
		network.SetTraceCollector(tracer)
	}

	strat, levelFor, err := buildStrategy(cfg, k, chassis, churnProc, field, batteries)
	if err != nil {
		return nil, err
	}

	var domains [][]data.ItemID
	if cfg.WarmCaches {
		domains = warmCaches(k, cfg, reg, stores, strat)
	}
	if err := strat.Start(k); err != nil {
		return nil, err
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
			return nil, fmt.Errorf("experiment: cached-domain workload requires WarmCaches")
		}
		wlCfg.Domain = func(host int) []data.ItemID { return domains[host] }
	}
	wl, err := workload.NewGenerator(wlCfg,
		func(kk *sim.Kernel, host int, item data.ItemID) {
			strat.OnQuery(kk, host, item, levelFor(host, item))
		},
		func(kk *sim.Kernel, host int) {
			strat.OnUpdate(kk, host)
		},
	)
	if err != nil {
		return nil, err
	}
	wl.AttachTelemetry(hub)
	wl.Start(k)

	a := &assembled{
		cfg: cfg, hub: hub, k: k, field: field, churn: churnProc,
		batteries: batteries, net: network, reg: reg, stores: stores,
		aud: aud, lat: lat, traffic: traffic, chassis: chassis, strat: strat,
		tracer: tracer,
	}

	// Sample the traffic total in 60 windows for the timeline.
	a.timeline = make([]uint64, 0, 60)
	var lastTx uint64
	_, _ = k.Every(cfg.SimTime/60, "experiment.timeline", func(*sim.Kernel) {
		cur := traffic.TotalTx()
		a.timeline = append(a.timeline, cur-lastTx)
		lastTx = cur
	})
	return a, nil
}

// finalize folds traffic, the topology-maintenance counters and the sim
// clock into the hub, then collects the run's Result. Call exactly once,
// after the kernel has run to its horizon.
func (a *assembled) finalize() Result {
	a.hub.AttachTraffic(a.traffic)
	publishTopologyStats(a.hub, a.net.TopologyStats())
	a.hub.Finish(a.k.Now())

	res := collect(a.cfg, a.strat, a.traffic, a.lat, a.chassis, a.stores)
	res.Telemetry = a.hub.Snapshot()
	res.TrafficTimeline = a.timeline
	res.MinBatteryCE = 1
	capacity := energy.DefaultConfig().Capacity
	drains := make([]float64, 0, len(a.batteries))
	for _, b := range a.batteries {
		ce := b.CE(a.k.Now())
		drain := capacity * (1 - ce)
		drains = append(drains, drain)
		res.EnergyDrained += drain
		if ce < res.MinBatteryCE {
			res.MinBatteryCE = ce
		}
	}
	res.EnergyFairness = jainIndex(drains)
	if a.faults != nil {
		rep := a.faults.Finish()
		res.Faults = &rep
	}
	return res
}

// publishTopologyStats exposes netsim's topology-maintenance counters as
// telemetry: how snapshots were produced (full rebuild vs kinetic
// sample), the kinetic machinery behind them (certificate checks, cell
// rebins, link make/break events) and what happened to route state at
// each sample. Counter handles are nil-safe, so a nil hub is a no-op.
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
	kinetic("cert_check").Add(s.CertChecks)
	kinetic("rebin").Add(s.Rebins)

	routes := func(outcome string) *telemetry.Counter {
		return hub.Counter("rpcc_topology_route_maintenance_total",
			"Route-table outcomes: stale tables repaired or abandoned on demand when next read, and wholesale resets.", telemetry.Label{Key: "outcome", Value: outcome})
	}
	routes("repaired").Add(s.RoutesRepaired)
	routes("dropped").Add(s.RoutesDropped)
	routes("full_reset").Add(s.RouteFullResets)
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

// buildStrategy instantiates the configured engine and the per-query
// consistency-level selector.
func buildStrategy(cfg Config, k *sim.Kernel, chassis *node.Chassis, churnProc *churn.Process, field *mobility.Field, batteries []*energy.Battery) (Strategy, func(host int, item data.ItemID) consistency.Level, error) {
	fixed := func(l consistency.Level) func(int, data.ItemID) consistency.Level {
		return func(int, data.ItemID) consistency.Level { return l }
	}
	switch cfg.Strategy {
	case StrategyPull:
		pullCfg := pullConfigFrom(cfg)
		s, err := newPull(pullCfg, chassis)
		return s, fixed(consistency.LevelStrong), err
	case StrategyPush:
		pushCfg := pushConfigFrom(cfg)
		s, err := newPush(pushCfg, chassis)
		return s, fixed(consistency.LevelStrong), err
	case StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY:
		coreCfg := coreConfigFrom(cfg)
		tel := core.Telemetry{
			Switches: churnProc.Switches,
			Moves:    func(nd int) uint64 { return field.Node(nd).Moves() },
			CE:       func(nd int) float64 { return batteries[nd].CE(k.Now()) },
		}
		eng, err := core.New(coreCfg, chassis, tel)
		if err != nil {
			return nil, nil, err
		}
		switch cfg.Strategy {
		case StrategyRPCCSC:
			return eng, fixed(consistency.LevelStrong), nil
		case StrategyRPCCDC:
			return eng, fixed(consistency.LevelDelta), nil
		case StrategyRPCCWC:
			return eng, fixed(consistency.LevelWeak), nil
		default: // hybrid: the three levels arrive with equal probability
			rng := k.Stream("experiment.levels")
			levels := []consistency.Level{
				consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak,
			}
			return eng, func(int, data.ItemID) consistency.Level {
				return levels[rng.Intn(len(levels))]
			}, nil
		}
	default:
		return nil, nil, fmt.Errorf("experiment: unknown strategy %q", cfg.Strategy)
	}
}

// testCoreMutator, when set (tests only), rewrites the derived core
// config — the broken-invariant chaos regression flips DisableRepair
// through it, since deliberately broken protocol knobs must never be
// reachable from an experiment Config.
var testCoreMutator func(*core.Config)

func coreConfigFrom(cfg Config) core.Config {
	c := core.DefaultConfig()
	if cfg.Popularity == workload.PopularitySingle {
		c.ActiveSource = func(host int) bool { return host == 0 }
	}
	c.InvalidationTTL = cfg.InvalidationTTL
	c.TTN = cfg.TTN
	c.TTR = cfg.TTR
	c.TTP = cfg.TTP
	c.PollFallbackTTL = cfg.BroadcastTTL
	c.Omega = cfg.Omega
	c.MuCAR = cfg.MuCAR
	c.MuCS = cfg.MuCS
	c.MuCE = cfg.MuCE
	c.EagerRelayRefresh = !cfg.DisableEagerRefresh
	if testCoreMutator != nil {
		testCoreMutator(&c)
	}
	return c
}

// warmCaches pre-populates the placement the paper's model assumes — in
// single-item mode every peer caches item 0; otherwise each node caches
// CacheNum items drawn uniformly from the others' — and returns each
// host's placed item set, which doubles as its query domain under
// PopularityCached.
func warmCaches(k *sim.Kernel, cfg Config, reg *data.Registry, stores []*cache.Store, strat Strategy) [][]data.ItemID {
	rng := k.Stream("experiment.warm")
	// Every host's domain is carved from one array of CacheNum slots each.
	slots := make([]data.ItemID, cfg.NPeers*cfg.CacheNum)
	domains := make([][]data.ItemID, cfg.NPeers)
	for host := range domains {
		lo := host * cfg.CacheNum
		domains[host] = slots[lo : lo : lo+cfg.CacheNum]
	}
	warm := func(host int, item data.ItemID) {
		m, err := reg.Master(item)
		if err != nil {
			return
		}
		if w, ok := strat.(interface {
			Warm(*sim.Kernel, int, data.Copy)
		}); ok {
			w.Warm(k, host, m.Current())
		} else if err := stores[host].Put(m.Current(), 0); err != nil {
			return
		}
		domains[host] = append(domains[host], item)
	}
	if cfg.Popularity == workload.PopularitySingle {
		for host := 1; host < cfg.NPeers; host++ {
			warm(host, 0)
		}
		return domains
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
			warm(host, data.ItemID(item))
		}
	}
	return domains
}

func collect(cfg Config, strat Strategy, traffic *stats.Traffic, lat *stats.Latency, chassis *node.Chassis, stores []*cache.Store) Result {
	r := Result{
		Strategy:    cfg.Strategy,
		Config:      cfg,
		TotalTx:     traffic.TotalTx(),
		TotalBytes:  traffic.TotalBytes(),
		ByKind:      traffic.Snapshot(),
		MeanLatency: lat.Mean(),
		P50Latency:  lat.Quantile(0.5),
		P99Latency:  lat.Quantile(0.99),
		MaxLatency:  lat.Max(),
		Issued:      chassis.Issued(),
		Answered:    chassis.Answered(),
		Failed:      chassis.Failed(),
	}
	if hours := cfg.SimTime.Hours(); hours > 0 {
		r.TxPerHour = float64(r.TotalTx) / hours
	}
	aud := chassis.Auditor
	r.Violations = aud.TotalViolations()
	r.TornAnswers = aud.Violations(consistency.ViolationTorn)
	r.FutureAnswers = aud.Violations(consistency.ViolationFuture)
	r.MeanStaleness = aud.MeanStaleness()
	r.MaxStaleness = aud.MaxStaleness()
	if rc, ok := strat.(RelayCounter); ok {
		r.RelayCount = rc.RelayCount()
	}
	if ps, ok := strat.(interface {
		PollStats() (uint64, uint64, uint64, uint64)
	}); ok {
		r.PollDirect, r.PollRing, r.PollFallback, r.RelayForgets = ps.PollStats()
	}
	if rc, ok := strat.(interface{ RoleCounts() (int, int, int) }); ok {
		r.RoleCache, r.RoleCand, r.RoleRelay = rc.RoleCounts()
	}
	var hit float64
	for _, s := range stores {
		hit += s.HitRatio()
	}
	r.MeanHitRatio = hit / float64(len(stores))
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
