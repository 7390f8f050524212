package wire

import (
	"fmt"
	"net"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

// Strategy names a consistency level policy for a live node. Only the
// RPCC variants run over the wire: the push/pull baselines schedule
// periodic duties at every node of the engine, which a one-node daemon
// cannot gate to itself.
const (
	StrategyRPCCSC = "rpcc-sc"
	StrategyRPCCDC = "rpcc-dc"
	StrategyRPCCWC = "rpcc-wc"
	StrategyRPCCHY = "rpcc-hy"
)

// ParseStrategy validates a strategy name.
func ParseStrategy(s string) (string, error) {
	switch s {
	case StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY:
		return s, nil
	default:
		return "", fmt.Errorf("wire: unknown strategy %q (want rpcc-sc|rpcc-dc|rpcc-wc|rpcc-hy)", s)
	}
}

// CoreConfig is the protocol configuration of a daemon given its timer
// overrides: core.DefaultConfig, Table 1's timers, with each positive
// one of ttn, ttr, ttp and coeff in place of its default; zero keeps it.
func CoreConfig(ttn, ttr, ttp, coeff time.Duration) core.Config {
	cc := core.DefaultConfig()
	if ttn > 0 {
		cc.TTN = ttn
	}
	if ttr > 0 {
		cc.TTR = ttr
	}
	if ttp > 0 {
		cc.TTP = ttp
	}
	if coeff > 0 {
		cc.CoeffPeriod = coeff
	}
	return cc
}

// NodeConfig assembles one live daemon.
type NodeConfig struct {
	// Self is this daemon's node id; Nodes the cluster width.
	Self  int
	Nodes int
	// Peers maps node id -> "host:port" for every cluster member.
	Peers map[int]string
	// Conn, when non-nil, is a pre-bound socket (see TransportConfig).
	Conn *net.UDPConn
	// Seed feeds this daemon's kernel streams (workload arrivals, level
	// mix). Give every daemon a distinct seed or they query in lockstep.
	Seed int64
	// Strategy is one of the rpcc-* variants.
	Strategy string
	// Core is the protocol configuration (TTN/TTR/TTP and friends). The
	// daemon overrides ActiveSource to gate source duties to Self.
	Core core.Config
	// Placement lists the foreign items warmed into Self's cache at
	// boot — the paper's assumed placement substrate.
	Placement []data.ItemID
	// CacheCapacity bounds the store (raised to fit Placement).
	CacheCapacity int
	// QueryInterval / UpdateInterval drive the built-in workload
	// generator; zero QueryInterval disables it entirely (an externally
	// driven node).
	QueryInterval  time.Duration
	UpdateInterval time.Duration
	// Chaos, when non-nil, installs the wire-level fault shim on this
	// daemon's transport; ChaosOffset maps the daemon's clock onto
	// campaign time (non-zero for daemons cold-restarted mid-campaign).
	Chaos       *faults.Config
	ChaosOffset time.Duration
	// ResumeOwnVersion fast-forwards Self's own item to this version at
	// Start, without announcing or reporting the skipped versions — how a
	// cold-restarted daemon resumes its durable write counter instead of
	// re-committing version numbers its previous incarnation already
	// published.
	ResumeOwnVersion data.Version
	// Hub receives telemetry (nil records nothing).
	Hub *telemetry.Hub
	// Trace, when non-nil, threads causal trace contexts through this
	// daemon's queries and ships them on the wire (version-2 frames).
	// Create it with region = Self so span ids never collide across the
	// cluster; read it back with TraceSpans after Stop.
	Trace *ctrace.Collector
	// OnAnswer observes every served answer with its wall-clock instant;
	// the cluster harness feeds these to the live oracle.
	OnAnswer func(nd int, item data.ItemID, level consistency.Level, served data.Copy, at time.Time)
	// OnCommit observes every committed write at Self with its
	// wall-clock instant.
	OnCommit func(item data.ItemID, v data.Version, at time.Time)
}

// Validate reports configuration errors.
func (c NodeConfig) Validate() error {
	if _, err := ParseStrategy(c.Strategy); err != nil {
		return err
	}
	if c.UpdateInterval <= 0 && c.QueryInterval > 0 {
		return fmt.Errorf("wire: workload needs a positive update interval")
	}
	for _, item := range c.Placement {
		if int(item) == c.Self {
			return fmt.Errorf("wire: placement contains self-owned item %d", item)
		}
		if item < 0 || int(item) >= c.Nodes {
			return fmt.Errorf("wire: placement item %d out of range [0,%d)", item, c.Nodes)
		}
	}
	return nil
}

// Node is one live daemon: the full N-wide RPCC engine bound to a UDP
// transport, with source duties gated to Self. Protocol state for
// foreign nodes exists but stays inert — their receivers never fire
// here, their ttn ticks are ActiveSource-gated no-ops — so N daemons
// each running "their" slice of the same engine compose into exactly the
// simulated system.
type Node struct {
	cfg     NodeConfig
	k       *sim.Kernel
	clock   *Clock
	tr      *Transport
	reg     *data.Registry
	stores  []*cache.Store
	chassis *node.Chassis
	eng     *core.Engine
	wl      *workload.Generator
	traffic *stats.Traffic
	lat     *stats.Latency
	// queries recycles Query's records between the callers' goroutines
	// and the kernel goroutine.
	queries freeList[queryReq]
	started bool
	stopped bool
}

// NewNode assembles a daemon. Nothing runs until Start.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel(sim.WithSeed(cfg.Seed))
	clock := NewClock(k)
	traffic := stats.NewTraffic()
	tr, err := NewTransport(TransportConfig{
		Self: cfg.Self, Nodes: cfg.Nodes, Peers: cfg.Peers, Conn: cfg.Conn,
	}, clock, traffic)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		ch, err := NewChaos(cfg.Chaos, cfg.Self, cfg.Nodes, cfg.ChaosOffset)
		if err != nil {
			tr.Close()
			return nil, err
		}
		tr.SetChaos(ch)
	}

	reg, err := data.NewRegistry(cfg.Nodes)
	if err != nil {
		tr.Close()
		return nil, err
	}
	capacity := cfg.CacheCapacity
	if capacity < len(cfg.Placement) {
		capacity = len(cfg.Placement)
	}
	if capacity <= 0 {
		capacity = 1
	}
	stores, err := cache.NewStores(cfg.Nodes, capacity, cache.Policy{})
	if err != nil {
		tr.Close()
		return nil, err
	}
	// reg is this daemon's private registry: it never hears another
	// owner's commits, so it is no ledger to judge answers against. The
	// chassis audits torn copies only; the ledger rules belong to the
	// post-hoc oracle.JudgeLive over the cluster's recorded commits.
	aud, err := consistency.NewAuditor(nil, 0, 0)
	if err != nil {
		tr.Close()
		return nil, err
	}
	lat := stats.NewLatency()
	chassis, err := node.NewChassis(tr, reg, stores, lat, aud)
	if err != nil {
		tr.Close()
		return nil, err
	}
	chassis.AttachTelemetry(cfg.Hub)
	if cfg.Trace != nil {
		chassis.Tracer = cfg.Trace
		tr.SetTraceCollector(cfg.Trace)
	}

	coreCfg := cfg.Core
	self := cfg.Self
	coreCfg.ActiveSource = func(host int) bool { return host == self }
	eng, err := core.New(coreCfg, chassis, core.Telemetry{})
	if err != nil {
		tr.Close()
		return nil, err
	}

	n := &Node{
		cfg: cfg, k: k, clock: clock, tr: tr, reg: reg, stores: stores,
		chassis: chassis, eng: eng, traffic: traffic, lat: lat,
		queries: make(freeList[queryReq], injectDepth),
	}
	if cfg.OnAnswer != nil {
		// OnAnswer gets q's fields, never q: the record is reissued.
		chassis.SetAnswerObserver(func(_ *sim.Kernel, q *node.Query, served data.Copy) {
			cfg.OnAnswer(self, q.Item, q.Level, served, time.Now())
		})
	}

	if cfg.QueryInterval > 0 {
		levelFor := n.levelSelector()
		wlCfg := workload.Config{
			Hosts:           cfg.Nodes,
			MeanQueryEvery:  cfg.QueryInterval,
			MeanUpdateEvery: cfg.UpdateInterval,
			Popularity:      workload.PopularityCached,
			// Only Self has a query domain: each daemon drives its own
			// node's demand, foreign hosts' streams tick inertly.
			Domain: func(host int) []data.ItemID {
				if host == self {
					return cfg.Placement
				}
				return nil
			},
		}
		n.wl, err = workload.NewGenerator(wlCfg,
			func(kk *sim.Kernel, host int, item data.ItemID) {
				n.eng.OnQuery(kk, host, item, levelFor(kk))
			},
			func(kk *sim.Kernel, host int) {
				if host != self {
					return // the owning daemon commits its own writes
				}
				n.commit(kk)
			},
		)
		if err != nil {
			tr.Close()
			return nil, err
		}
	}
	return n, nil
}

// levelSelector maps the strategy to a per-query consistency level.
func (n *Node) levelSelector() func(*sim.Kernel) consistency.Level {
	switch n.cfg.Strategy {
	case StrategyRPCCSC:
		return func(*sim.Kernel) consistency.Level { return consistency.LevelStrong }
	case StrategyRPCCDC:
		return func(*sim.Kernel) consistency.Level { return consistency.LevelDelta }
	case StrategyRPCCWC:
		return func(*sim.Kernel) consistency.Level { return consistency.LevelWeak }
	default: // hybrid: equal thirds
		levels := []consistency.Level{
			consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak,
		}
		return func(k *sim.Kernel) consistency.Level {
			return levels[k.Stream("wire.levels").Intn(len(levels))]
		}
	}
}

// commit performs one write to Self's item and reports it.
func (n *Node) commit(k *sim.Kernel) {
	n.eng.OnUpdate(k, n.cfg.Self)
	if n.cfg.OnCommit == nil {
		return
	}
	item := n.reg.OwnedBy(n.cfg.Self)
	m, err := n.reg.Master(item)
	if err != nil {
		return
	}
	cur := m.Current()
	n.cfg.OnCommit(cur.ID, cur.Version, time.Now())
}

// Start warms the placement, starts the engine and workload on the
// kernel, then opens the wire: the read loop and the real-time clock.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("wire: node already started")
	}
	n.started = true
	if n.cfg.ResumeOwnVersion > 0 {
		// Resume the durable write counter: a fresh registry restarts
		// Self's item at version 0, and re-publishing version numbers the
		// previous incarnation already committed would corrupt the
		// cluster's commit ledger.
		item := n.reg.OwnedBy(n.cfg.Self)
		m, err := n.reg.Master(item)
		if err != nil {
			return err
		}
		for m.Current().Version < n.cfg.ResumeOwnVersion {
			if _, err := n.reg.Commit(item, n.k.Now()); err != nil {
				return err
			}
		}
	}
	for _, item := range n.cfg.Placement {
		m, err := n.reg.Master(item)
		if err != nil {
			return err
		}
		n.eng.Warm(n.k, n.cfg.Self, m.Current())
	}
	if err := n.eng.Start(n.k); err != nil {
		return err
	}
	if n.wl != nil {
		n.wl.Start(n.k)
	}
	n.tr.Run()
	return n.clock.Start()
}

// Inject runs fn on the kernel goroutine (external query drivers).
func (n *Node) Inject(fn func(k *sim.Kernel)) bool { return n.clock.Inject(fn) }

// Query injects one query at Self for item at the given level — the
// externally driven path (no built-in workload needed). The outcome is
// observable through OnAnswer or the chassis counters. Safe from any
// goroutine; the query travels as a pooled record, not a closure.
func (n *Node) Query(item data.ItemID, level consistency.Level) bool {
	q := n.queries.get()
	q.n, q.item, q.level = n, item, level
	if !n.clock.injectTimer(q) {
		n.queries.put(q)
		return false
	}
	return true
}

// queryReq is one externally driven query on its way to the kernel
// goroutine.
type queryReq struct {
	n     *Node
	item  data.ItemID
	level consistency.Level
}

// Fire issues the query and returns the record to its free list.
func (q *queryReq) Fire(k *sim.Kernel) {
	n, item, level := q.n, q.item, q.level
	n.queries.put(q)
	n.eng.OnQuery(k, n.cfg.Self, item, level)
}

// Stop shuts the daemon down: the clock finishes its in-flight handler
// and every already-due event within the drain deadline, then the socket
// closes and telemetry is finalised. Safe to call more than once.
func (n *Node) Stop(drain time.Duration) error {
	if n.stopped {
		return nil
	}
	n.stopped = true
	stopErr := n.clock.Stop(drain)
	closeErr := n.tr.Close()
	// The kernel goroutine has exited (or been abandoned past deadline);
	// on a clean stop the ledgers publish and telemetry is finalised with
	// the last virtual instant.
	if stopErr == nil {
		n.cfg.Hub.AttachTraffic(n.traffic)
		n.chassis.Publish()
		n.eng.Publish()
		n.cfg.Hub.Finish(n.k.Now())
	}
	if stopErr != nil {
		return stopErr
	}
	return closeErr
}

// TraceSpans exports the daemon's causal trace in canonical order (nil
// without a NodeConfig.Trace collector). Call after Stop: the collector
// is confined to the kernel goroutine while the clock runs.
func (n *Node) TraceSpans() []ctrace.Span {
	return n.cfg.Trace.Export()
}

// LocalAddr returns the daemon's bound UDP address.
func (n *Node) LocalAddr() *net.UDPAddr { return n.tr.LocalAddr() }

// Chassis exposes query accounting (read after Stop).
func (n *Node) Chassis() *node.Chassis { return n.chassis }

// Traffic exposes the per-kind wire accounting.
func (n *Node) Traffic() *stats.Traffic { return n.traffic }

// Latency exposes the answered-query latency histogram.
func (n *Node) Latency() *stats.Latency { return n.lat }

// Transport exposes the UDP layer (diagnostics).
func (n *Node) Transport() *Transport { return n.tr }

// Summary renders a one-line daemon report.
func (n *Node) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d (%s): issued=%d answered=%d failed=%d tx=%d bytes=%d",
		n.cfg.Self, n.cfg.Strategy, n.chassis.Issued(), n.chassis.Answered(),
		n.chassis.Failed(), n.traffic.TotalTx(), n.traffic.TotalBytes())
	if d := n.tr.DecodeErrors(); d > 0 {
		fmt.Fprintf(&b, " decode-errs=%d", d)
	}
	if e := n.tr.ReadErrors(); e > 0 {
		fmt.Fprintf(&b, " read-errs=%d", e)
	}
	return b.String()
}
