package experiment

import (
	"errors"
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
	"github.com/manetlab/rpcc/internal/pushpull"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

// World is one simulated stack — positions, churn, batteries, network,
// registry, stores, auditor, chassis and strategy — wired onto a kernel
// by Build and not yet started. Build is the only place that wires one:
// a batch run (Run, RunScale) adds the warm placement, the workload, the
// traffic timeline and a fault campaign to it, the conformance oracle
// its reference model and script, rpcc.Simulation its scheduling
// methods.
type World struct {
	Config Config
	K      *sim.Kernel
	// Field moves the nodes by random waypoint; nil on a static layout
	// (WithLayout).
	Field     *mobility.Field
	Churn     *churn.Process
	Batteries []*energy.Battery
	Net       *netsim.Network
	Reg       *data.Registry
	Stores    []*cache.Store
	// Chassis carries the auditor (Chassis.Auditor) and the latency
	// record (Chassis.Latency).
	Chassis  *node.Chassis
	Strategy Strategy
	// Engine is Strategy when it is RPCC, nil for the baselines.
	Engine *core.Engine
	Hub    *telemetry.Hub
	Tracer *ctrace.Collector

	// timeline is a batch run's traffic samples; faults audits its
	// campaign's invariants (nil without one); busy is the wall time its
	// RunUntil took.
	timeline []uint64
	faults   *faults.Auditor
	busy     time.Duration
}

// Option supplies what a caller cannot set on a built World.
type Option func(*options)

type options struct {
	k      *sim.Kernel
	hub    *telemetry.Hub
	tracer *ctrace.Collector
	layout layout
	core   func(*core.Config)
}

// WithKernel builds onto k (a scale region's shard) instead of a fresh
// kernel seeded with Config.Seed and bounded by Config.SimTime.
func WithKernel(k *sim.Kernel) Option { return func(o *options) { o.k = k } }

// WithHub installs hub across the stack: netsim tracer, chassis,
// strategy counters, workload and fault plane. Without it (or with nil)
// nothing is recorded.
func WithHub(hub *telemetry.Hub) Option { return func(o *options) { o.hub = hub } }

// WithTracer threads causal trace contexts through every query and
// protocol message (chassis roots, netsim transit spans) into c.
func WithTracer(c *ctrace.Collector) Option { return func(o *options) { o.tracer = c } }

// WithLayout pins node i at pts[i] for the whole run instead of moving it
// by random waypoint. The layout runs on the kinetic topology plane like
// a mobility field, as a source whose nodes never drift. Without a
// mobility field there is no movement signal for RPCC's coefficients and
// no geometric hop hint for the utility policy.
func WithLayout(pts []geo.Point) Option { return func(o *options) { o.layout = pts } }

// WithCoreConfig lets fn rewrite the RPCC engine's config after Build
// derives it from Config. The deliberately broken protocol variants
// (core.Config.Mutant) are reachable only this way, never from a Config.
func WithCoreConfig(fn func(*core.Config)) Option { return func(o *options) { o.core = fn } }

// setupTimersPerNode bounds the timers set-up arms per node: one churn
// flip, two RPCC ticks (TTN and coefficient) and the workload's query and
// update streams.
const setupTimersPerNode = 5

// layout is a static position source: node i stays at layout[i].
type layout []geo.Point

func (l layout) Len() int { return len(l) }

func (l layout) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	return append(dst[:0], l...)
}

// Build validates cfg and wires its stack onto a kernel, leaving the
// kernel unrun and the strategy unstarted.
func Build(cfg Config, opts ...Option) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	k := o.k
	if k == nil {
		k = sim.NewKernel(sim.WithSeed(cfg.Seed), sim.WithHorizon(cfg.SimTime))
	}
	w := &World{Config: cfg, K: k, Hub: o.hub, Tracer: o.tracer}
	// The queue is sized once for the timers set-up arms, plus a batch
	// run's traffic timeline, rather than grown by doubling.
	k.Reserve(setupTimersPerNode*cfg.NPeers + 1)

	var positions netsim.PositionSource = o.layout
	if o.layout == nil {
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
		rngs := k.Streams("mobility.", cfg.NPeers)
		w.Field, err = mobility.NewField(mobCfg, cfg.NPeers, func(i int) *rand.Rand { return rngs[i] })
		if err != nil {
			return nil, err
		}
		positions = w.Field
	} else if len(o.layout) != cfg.NPeers {
		return nil, fmt.Errorf("experiment: layout of %d points for %d peers", len(o.layout), cfg.NPeers)
	}

	var err error
	churnCfg := churn.Config{
		MeanUp:   cfg.SwitchInterval,
		MeanDown: cfg.MeanDown,
		Disabled: cfg.ChurnDisabled,
	}
	if w.Churn, err = churn.NewProcess(churnCfg, cfg.NPeers, k); err != nil {
		return nil, err
	}
	if w.Batteries, err = energy.NewBatteries(energy.DefaultConfig(), cfg.NPeers); err != nil {
		return nil, err
	}

	netCfg := netsim.DefaultConfig()
	netCfg.CommRange = cfg.CommRange
	if cfg.UseDSRRouting {
		netCfg.Routing = netsim.RoutingDSR
	}
	netCfg.LossRate = cfg.LossRate
	netCfg.RouteTableCap = cfg.RouteTableCap
	netCfg.LazyChurnRefresh = cfg.LazyChurnRefresh
	if w.Net, err = netsim.New(netCfg, k, positions, w.Churn, w.Batteries, stats.NewTraffic()); err != nil {
		return nil, err
	}

	if w.Reg, err = data.NewRegistry(cfg.NPeers); err != nil {
		return nil, err
	}
	// The TTL policy ranks freshness against the scenario's TTP horizon.
	pol, err := cache.NewPolicy(cfg.CachePolicy, cache.PolicyParams{TTL: cfg.TTP})
	if err != nil {
		return nil, err
	}
	if w.Stores, err = cache.NewStores(cfg.NPeers, cfg.CacheNum, pol); err != nil {
		return nil, err
	}
	if cfg.CachePolicy == cache.PolicyUtility && w.Field != nil {
		cache.SetHopsHint(w.Stores, w.hopsHint)
	}

	// Slack: in-flight forgiveness covering flood propagation plus the
	// poll round trip at the default hop latency.
	aud, err := consistency.NewAuditor(w.Reg, cfg.TTP, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if w.Chassis, err = node.NewChassis(w.Net, w.Reg, w.Stores, stats.NewLatency(), aud); err != nil {
		return nil, err
	}
	w.Chassis.AttachTelemetry(w.Hub)
	if tr := w.Hub.Tracer(); tr != nil {
		w.Net.SetTracer(tr)
	}
	if w.Tracer != nil {
		w.Chassis.Tracer = w.Tracer
		w.Net.SetTraceCollector(w.Tracer)
	}

	switch cfg.Strategy {
	case StrategyPull:
		w.Strategy, err = pushpull.NewPull(pullConfigFrom(cfg), w.Chassis)
	case StrategyPush:
		w.Strategy, err = pushpull.NewPush(pushConfigFrom(cfg), w.Chassis)
	default: // Validate admits only the RPCC kinds besides the baselines
		coreCfg := coreConfigFrom(cfg)
		if o.core != nil {
			o.core(&coreCfg)
		}
		tel := core.Telemetry{
			Switches: w.Churn.Switches,
			CE:       func(nd int) float64 { return w.Batteries[nd].CE(k.Now()) },
		}
		if w.Field != nil {
			tel.Moves = func(nd int) uint64 { return w.Field.Node(nd).Moves() }
		}
		w.Engine, err = core.New(coreCfg, w.Chassis, tel)
		w.Strategy = w.Engine
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// hopsHint estimates the re-fetch distance from node to an item's source
// host geometrically (current positions, one hop per CommRange) for the
// utility policy. A pure function of sim state, so runs stay
// deterministic.
func (w *World) hopsHint(node int, item data.ItemID) int {
	owner := w.Reg.Owner(item)
	if owner < 0 || owner >= w.Config.NPeers || owner == node {
		return 0
	}
	now := w.K.Now()
	d := w.Field.PeekPosition(node, now).Dist(w.Field.PeekPosition(owner, now))
	return int(math.Ceil(d / w.Config.CommRange))
}

// Warm places the current master copies of items in host's cache before
// (or during) the run — the placement substrate the paper assumes: through
// the RPCC engine, which also creates each copy's protocol state, or
// straight into a baseline's store. The items go in as one batch, in the
// order given (see core.Engine.Warm and cache.Store.Warm).
func (w *World) Warm(host int, items ...data.ItemID) error {
	// A placement is about ten copies: they are gathered on the stack.
	var buf [16]data.Copy
	cs := buf[:0]
	for _, item := range items {
		m, err := w.Reg.Master(item)
		if err != nil {
			return err
		}
		cs = append(cs, m.Current())
	}
	now := w.K.Now()
	if w.Engine != nil {
		w.Engine.Warm(w.K, host, cs...)
		return nil
	}
	st := w.Stores[host]
	if st.Warm(cs, now, w.Reg) {
		return nil
	}
	var errs []error
	for _, c := range cs {
		if err := st.Put(c, now); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Start wires the strategy's receivers and schedules its periodic duties.
func (w *World) Start() error { return w.Strategy.Start(w.K) }

// RunUntil executes every event due at or before t.
func (w *World) RunUntil(t time.Duration) { w.K.RunUntil(t) }

// coreConfigFrom maps a scenario onto RPCC's knobs.
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
	return c
}

// pushConfigFrom maps a scenario onto the simple push baseline's knobs.
func pushConfigFrom(cfg Config) pushpull.PushConfig {
	c := pushpull.DefaultPushConfig()
	c.TTN = cfg.TTN
	c.BroadcastTTL = cfg.BroadcastTTL
	if cfg.Popularity == workload.PopularitySingle {
		c.ActiveSource = func(host int) bool { return host == 0 }
	}
	if c.QueryPatience < 3*cfg.TTN {
		c.QueryPatience = 3 * cfg.TTN
	}
	return c
}

// pullConfigFrom maps a scenario onto the simple pull baseline's knobs.
func pullConfigFrom(cfg Config) pushpull.PullConfig {
	c := pushpull.DefaultPullConfig()
	c.BroadcastTTL = cfg.BroadcastTTL
	return c
}
