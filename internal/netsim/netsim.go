// Package netsim ties the simulation substrates together into a
// message-passing MANET: mobility supplies positions, radio derives the
// unit-disk connectivity snapshot, churn and energy gate which nodes are
// usable, and this package delivers protocol messages across the resulting
// time-varying multi-hop topology.
//
// Two delivery primitives cover everything the paper's protocols need:
//
//   - Flood: TTL-scoped flooding with duplicate suppression — the paper's
//     INVALIDATION broadcast, the baselines' IR and poll floods, and the
//     expanding-ring POLL/DATA_REQUEST searches.
//   - Unicast: hop-by-hop forwarding along BFS shortest paths, with the
//     next hop re-evaluated at every relay on the then-current topology —
//     UPDATE, APPLY, POLL_ACK and the other point-to-point messages.
//
// Traffic is accounted per link-level transmission (one per forwarding
// node), the unit in which the paper's Fig 7/9(a) report network traffic.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// PositionSource supplies node positions at a virtual time. Production
// code passes *mobility.Field; static layouts and tests pass fixed
// slices. The network reads PositionsAt once per topology sample, at the
// sample time, and the kinetic plane needs nothing else of a source: a
// static layout is one whose positions never change.
type PositionSource interface {
	Len() int
	PositionsAt(t time.Duration, dst []geo.Point) []geo.Point
}

// Meta carries delivery metadata to receivers.
type Meta struct {
	// Hops is the number of link-level hops the message traversed.
	Hops int
	// At is the virtual delivery time.
	At time.Duration
	// SentAt is the virtual time the message entered the network at its
	// origin, so tracers can account end-to-end delivery latency
	// (At - SentAt) per message. For DSR-routed unicasts it is the
	// original send time, including any route-discovery wait.
	SentAt time.Duration
	// Flood reports whether the message arrived via flooding.
	Flood bool
	// FloodID identifies which flood delivered the message (1, 2, … in
	// origination order; 0 for unicasts), letting tracers correlate the
	// fan-out of one broadcast across its deliveries.
	FloodID uint64
}

// Receiver handles a message delivered to a node. Receivers run inside the
// simulation loop and may send messages and schedule events, but must not
// block.
type Receiver func(k *sim.Kernel, node int, msg protocol.Message, meta Meta)

// Tracer observes every message delivery, before the receiver runs. Used
// by the protocol trace tool and by tests that assert on message flows.
type Tracer func(at time.Duration, node int, msg protocol.Message, meta Meta)

// Perturbation is what a schedule perturber does to one delivery: drop
// it, delay it, or deliver a second copy. The zero value leaves the
// delivery untouched. The wire's chaos shim returns the same value for
// every frame a daemon receives.
type Perturbation struct {
	// Drop suppresses the delivery, recorded under Cause (the zero cause
	// is loss).
	Drop  bool
	Cause stats.DropCause
	// Delay postpones the delivery by this much time (0: on schedule).
	Delay time.Duration
	// Dup delivers a second copy, DupDelay from now.
	Dup      bool
	DupDelay time.Duration
}

// Perturber inspects every final delivery — unicast, flood and local
// alike, just before the tracer and receiver would run — and returns the
// schedule perturbation to apply. The fault plane's duplication and
// jitter and the conformance fuzzer's rules are both perturbers.
// Implementations must be deterministic and draw only from their own
// stream, so the rest of the run draws exactly what it would without them.
// The tracer and receiver observe only what survives perturbation, at its
// actual delivery time.
type Perturber func(node int, msg protocol.Message, meta Meta) Perturbation

// LossModel replaces the uniform per-reception loss draw when installed
// with SetLossModel — e.g. a two-state Gilbert–Elliott chain producing
// correlated loss bursts. Implementations draw from their own kernel
// stream so the network's jitter/loss streams are untouched and runs
// without a model installed stay byte-identical.
type LossModel interface {
	// Lost draws whether one link-level reception is lost.
	Lost() bool
}

// LinkFilter reports whether the link from -> to is currently severed by
// a fault plane (network partition). Consulted per link-level reception,
// after the receiver-up check and before the loss draw, so installing a
// filter changes no RNG draw ordering for uncut links.
type LinkFilter func(from, to int) bool

// Config parameterises the network layer.
type Config struct {
	// CommRange is the radio range in metres (Table 1: 250 m).
	CommRange float64
	// HopBase is the fixed per-hop forwarding delay.
	HopBase time.Duration
	// BandwidthBps is the link bandwidth in bits per second; it converts
	// message sizes into transmission delay (802.11b-era 2 Mbps default).
	BandwidthBps float64
	// JitterMax is the maximum uniform random extra delay per hop,
	// modelling MAC contention.
	JitterMax time.Duration
	// TopologyRefresh is how often the connectivity snapshot is rebuilt
	// from node positions.
	TopologyRefresh time.Duration
	// MaxRouteHops bounds hop-by-hop unicast forwarding so routing loops
	// caused by mid-flight topology changes terminate.
	MaxRouteHops int
	// Routing selects the unicast routing layer: RoutingOracle (default;
	// idealised zero-overhead shortest paths) or RoutingDSR (on-demand
	// source routing with RREQ/RREP/RERR overhead, as the paper's
	// GloMoSim testbed used).
	Routing RoutingMode
	// LossRate is the probability that any single link-level reception
	// fails (the "higher packet loss rate" of the paper's §1 problem
	// statement). Zero (the default) models a clean channel; protocols
	// must survive non-zero values through their own timers.
	LossRate float64
	// SerializeTx, when set, gives each node a single radio: frames
	// queue behind one another for their transmission time
	// (size/bandwidth), so bursts experience MAC-style queueing delay.
	// Off by default: the paper-reproduction figures use the idealised
	// parallel radio, and the A10 ablation quantifies the difference.
	SerializeTx bool
	// RouteTableCap bounds how many per-destination route tables the
	// snapshot keeps alive (0 = unlimited, the historical behaviour).
	// Large kinetic runs set a cap so persistent tables stay O(cap·n)
	// instead of O(n²).
	RouteTableCap int
	// LazyChurnRefresh stops churn flips from invalidating the cached
	// topology snapshot: down/up transitions are only folded into the
	// adjacency at the next TopologyRefresh epoch. Per-hop forwarding
	// still checks Up() live, so a downed node never relays or receives
	// — only route *choice* sees churn at epoch granularity. Scale runs
	// (100k nodes, ~2k flips/s) enable this; at that rate per-flip
	// resampling costs more than the whole rest of the simulation.
	LazyChurnRefresh bool
}

// DefaultConfig returns the network parameters used across the paper's
// experiments.
func DefaultConfig() Config {
	return Config{
		CommRange:       250,
		HopBase:         2 * time.Millisecond,
		BandwidthBps:    2_000_000,
		JitterMax:       time.Millisecond,
		TopologyRefresh: time.Second,
		MaxRouteHops:    32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CommRange <= 0 {
		return fmt.Errorf("netsim: non-positive range %g", c.CommRange)
	}
	if c.HopBase <= 0 {
		return fmt.Errorf("netsim: non-positive hop base %v", c.HopBase)
	}
	if c.BandwidthBps <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth %g", c.BandwidthBps)
	}
	if c.JitterMax < 0 {
		return fmt.Errorf("netsim: negative jitter %v", c.JitterMax)
	}
	if c.TopologyRefresh <= 0 {
		return fmt.Errorf("netsim: non-positive topology refresh %v", c.TopologyRefresh)
	}
	if c.MaxRouteHops <= 0 {
		return fmt.Errorf("netsim: non-positive max route hops %d", c.MaxRouteHops)
	}
	switch c.Routing {
	case routingUnset, RoutingOracle, RoutingDSR:
	default:
		return fmt.Errorf("netsim: unknown routing mode %d", c.Routing)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %g outside [0,1)", c.LossRate)
	}
	if c.RouteTableCap < 0 {
		return fmt.Errorf("netsim: negative route table cap %d", c.RouteTableCap)
	}
	return nil
}

// Network is the message-passing MANET.
type Network struct {
	cfg       Config
	k         *sim.Kernel
	field     PositionSource
	churn     *churn.Process
	batteries []*energy.Battery
	traffic   *stats.Traffic
	receivers []Receiver
	tracer    Tracer
	trace     *ctrace.Collector
	jitter    *rand.Rand
	loss      *rand.Rand

	builder    *radio.GraphBuilder
	cached     *radio.Graph
	cachedAt   time.Duration
	cacheValid bool

	// kin is the kinetic topology plane behind every snapshot; topo
	// accumulates its maintenance counters. diffBuf is the reused CSR
	// edge-diff scratch between samples.
	kin     *kinetic
	topo    TopologyStats
	diffBuf []radio.EdgeDiff

	// activity counts link-level sends plus receptions per node —
	// including pure forwarding work — as the radio-level evidence of a
	// node's participation in the network.
	activity []uint64

	// txBusy is each node's radio-reservation horizon under SerializeTx.
	txBusy []time.Duration

	// downBuf and posBuf are retained between topology rebuilds and
	// position queries so the per-event hot path does not allocate.
	downBuf []bool
	posBuf  []geo.Point

	// nextFlood numbers floods in origination order; the current value
	// rides on every flood delivery as Meta.FloodID.
	nextFlood uint64

	// floodStates recycles per-flood duplicate-suppression state. A
	// flood's state returns to the pool once its last in-flight broadcast
	// lands. The other three recycle the delivery records themselves (see
	// floodRx, hopTx and perturbTx), so steady-state delivery allocates
	// nothing.
	floodStates sim.Pool[floodState]
	floodRxs    sim.Pool[floodRx]
	hopTxs      sim.Pool[hopTx]
	perturbTxs  sim.Pool[perturbTx]
	// hearers is where a floodRx's hearer list gets room for its
	// sender's whole neighbour row (transmitFlood).
	hearers sim.RowSlab

	// rebuilds counts topology snapshot rebuilds (cache misses).
	rebuilds uint64

	// dsr holds per-node routing state when cfg.Routing is RoutingDSR.
	dsr []*dsrNode

	// Fault hooks. All nil in normal runs: the hot paths pay one nil
	// check and draw no extra randomness, so seeded runs without faults
	// stay byte-identical to builds without them.
	lossModel  LossModel
	linkFilter LinkFilter
	perturber  Perturber
}

// New constructs the network. churnProc and batteries are optional (nil
// means "no churn" / "no energy accounting"); field and kernel are not.
func New(cfg Config, k *sim.Kernel, field PositionSource, churnProc *churn.Process, batteries []*energy.Battery, traffic *stats.Traffic) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k == nil || field == nil {
		return nil, fmt.Errorf("netsim: nil kernel or field")
	}
	if traffic == nil {
		traffic = stats.NewTraffic()
	}
	if batteries != nil && len(batteries) != field.Len() {
		return nil, fmt.Errorf("netsim: %d batteries for %d nodes", len(batteries), field.Len())
	}
	n := &Network{
		cfg:       cfg,
		k:         k,
		field:     field,
		churn:     churnProc,
		batteries: batteries,
		traffic:   traffic,
		receivers: make([]Receiver, field.Len()),
		jitter:    k.Stream("netsim.jitter"),
		loss:      k.Stream("netsim.loss"),
		activity:  make([]uint64, field.Len()),
		txBusy:    make([]time.Duration, field.Len()),
		builder:   radio.NewGraphBuilder(),
	}
	if cfg.Routing == routingUnset {
		n.cfg.Routing = RoutingOracle
	}
	if n.cfg.Routing == RoutingDSR {
		n.initDSR()
	}
	n.kin = newKinetic(field, cfg.CommRange, &n.topo)
	if churnProc != nil && !cfg.LazyChurnRefresh {
		// Any connectivity flip invalidates the cached topology snapshot
		// immediately, so messages in the same refresh window observe it.
		churnProc.Subscribe(func(int, churn.State, time.Duration) { n.cacheValid = false })
	}
	return n, nil
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.receivers) }

// Traffic returns the traffic ledger.
func (n *Network) Traffic() *stats.Traffic { return n.traffic }

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// SetReceiver installs node's message handler (replacing any previous).
func (n *Network) SetReceiver(node int, r Receiver) error {
	if node < 0 || node >= len(n.receivers) {
		return fmt.Errorf("netsim: node %d out of range", node)
	}
	n.receivers[node] = r
	return nil
}

// Up reports whether a node is currently usable: connected per churn and
// not battery-depleted.
func (n *Network) Up(node int) bool {
	if node < 0 || node >= len(n.receivers) {
		return false
	}
	if n.churn != nil && !n.churn.Connected(node) {
		return false
	}
	if n.batteries != nil && n.batteries[node].Depleted(n.k.Now()) {
		return false
	}
	return true
}

// Graph returns the connectivity snapshot for the current virtual time,
// rebuilding it when the topology-refresh window rolled over or churn
// invalidated it. Rebuilds reuse the network's GraphBuilder, so the
// returned snapshot is only valid until the next rebuild — callers fetch
// it fresh per event handler and must not retain it across events (no
// caller does; routing re-reads the topology at every hop by design).
func (n *Network) Graph() *radio.Graph {
	now := n.k.Now()
	epoch := now.Truncate(n.cfg.TopologyRefresh)
	if n.cacheValid && n.cachedAt == epoch {
		return n.cached
	}
	// The one position read of a sample. A mobility field counts subnet
	// crossings here, so RPCC's N_m (mobility.Waypoint.Moves) is sampled
	// at topology samples.
	n.posBuf = n.field.PositionsAt(now, n.posBuf)
	if cap(n.downBuf) < n.field.Len() {
		n.downBuf = make([]bool, n.field.Len())
	}
	down := n.downBuf[:n.field.Len()]
	for i := range down {
		down[i] = !n.Up(i)
	}
	g, err := n.kineticSample(down, uint64(epoch))
	if err != nil {
		// Config was validated at construction; only a programming error
		// reaches here. Fail loudly rather than route on a stale graph.
		panic(fmt.Sprintf("netsim: graph rebuild failed: %v", err))
	}
	g.SetRouteTableCap(n.cfg.RouteTableCap)
	n.rebuilds++
	n.cached = g
	n.cachedAt = epoch
	n.cacheValid = true
	return g
}

// Reachable reports whether a link-layer path currently exists between
// the two nodes — the MAC-layer disconnection check of §4.5. It reads
// the same epoch-cached topology snapshot as routing, so calling it
// draws no randomness and perturbs nothing.
func (n *Network) Reachable(from, to int) bool {
	return n.Graph().Hops(from, to) != radio.Unreachable
}

// Rebuilds returns how many times the topology snapshot has been rebuilt —
// the cache-miss count behind Graph(). Tests use it to assert refresh and
// invalidation behaviour without relying on snapshot identity (the builder
// reuses one graph in place).
func (n *Network) Rebuilds() uint64 { return n.rebuilds }

// TopologyStats returns the topology-maintenance counters: the plane's
// initial build vs its incremental samples, link make/break events, exact
// pair tests, Verlet re-anchorings, and route tables repaired vs dropped.
// The repaired/dropped pair is read off the snapshot, which counts the
// on-demand catch-ups as routing reads stale tables.
func (n *Network) TopologyStats() TopologyStats {
	s := n.topo
	if n.cached != nil {
		s.RoutesRepaired, s.RoutesDropped = n.cached.RouteRepairs()
	}
	return s
}

// kineticSample produces the snapshot for a sample via the kinetic plane
// — the only place the plane advances: bring the plane to the sampled
// positions and Up mask, which yields the CSR edge changes since the last
// sample, repack the CSR from the maintained adjacency rows, and log the
// changes on the snapshot so each route table is repaired when it is next
// read. The first call performs the one full build the plane ever does.
func (n *Network) kineticSample(down []bool, stamp uint64) (*radio.Graph, error) {
	kn := n.kin
	row := func(i int) []int32 { return kn.linkedAdj[i] }
	if !kn.inited {
		kn.init(n.posBuf, down)
		return n.builder.RebuildFromRows(kn.n, row, down, n.cfg.CommRange, stamp)
	}
	n.diffBuf = kn.advance(n.posBuf, down, n.diffBuf)
	g, err := n.builder.RebuildFromRows(kn.n, row, down, n.cfg.CommRange, stamp)
	if err != nil {
		return nil, err
	}
	g.PatchRoutes(n.diffBuf)
	n.topo.KineticSamples++
	return g, nil
}

// txDelay reserves node's radio for one frame and returns the delay until
// the frame lands one hop away: the plain hop delay under the idealised
// parallel radio, plus queueing behind earlier frames under SerializeTx.
func (n *Network) txDelay(node, bytes int) time.Duration {
	d := n.hopDelay(bytes)
	if !n.cfg.SerializeTx {
		return d
	}
	service := time.Duration(float64(bytes*8) / n.cfg.BandwidthBps * float64(time.Second))
	start := n.k.Now()
	if n.txBusy[node] > start {
		start = n.txBusy[node]
	}
	n.txBusy[node] = start + service
	return (start - n.k.Now()) + d
}

// SetLossModel installs (or with nil removes) a loss model that replaces
// the uniform LossRate draw. Install during setup, before the kernel
// runs, so every reception of the run sees the same channel.
func (n *Network) SetLossModel(m LossModel) { n.lossModel = m }

// SetLinkFilter installs (or with nil removes) the fault plane's link
// cut predicate.
func (n *Network) SetLinkFilter(f LinkFilter) { n.linkFilter = f }

// lost draws the per-reception loss event from the installed loss model,
// or from the uniform LossRate channel when none is installed.
func (n *Network) lost() bool {
	if n.lossModel != nil {
		return n.lossModel.Lost()
	}
	return n.cfg.LossRate > 0 && n.loss.Float64() < n.cfg.LossRate
}

// cut reports whether the fault plane severs the link from -> to. No RNG
// draws: safe to consult between the up check and the loss draw.
func (n *Network) cut(from, to int) bool {
	return n.linkFilter != nil && n.linkFilter(from, to)
}

// hopDelay returns the per-hop latency for a message of the given size.
func (n *Network) hopDelay(bytes int) time.Duration {
	txTime := time.Duration(float64(bytes*8) / n.cfg.BandwidthBps * float64(time.Second))
	d := n.cfg.HopBase + txTime
	if n.cfg.JitterMax > 0 {
		d += time.Duration(n.jitter.Int63n(int64(n.cfg.JitterMax)))
	}
	return d
}

func (n *Network) spendTx(node int) {
	n.activity[node]++
	if n.batteries != nil {
		n.batteries[node].SpendTx(n.k.Now())
	}
}

func (n *Network) spendRx(node int) {
	n.activity[node]++
	if n.batteries != nil {
		n.batteries[node].SpendRx(n.k.Now())
	}
}

// Activity returns the cumulative number of link-level transmissions and
// receptions node has performed, including forwarding on behalf of
// others. RPCC's coefficient tracker uses it as accessibility evidence
// (N_a): a node that carries traffic is reachable and responsive.
func (n *Network) Activity(node int) uint64 {
	if node < 0 || node >= len(n.activity) {
		return 0
	}
	return n.activity[node]
}

// SetTracer installs a delivery observer (nil to remove).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// SetTraceCollector installs (or with nil removes) the causal-trace
// collector. Every delivery of a traced message — one whose sender put a
// trace context on it — records a transit span covering [SentAt, At] and
// re-parents the message's context onto that span before the receiver
// runs, so receiver-side spans chain through the hop that carried the
// message. Untraced messages cost one pointer check.
func (n *Network) SetTraceCollector(c *ctrace.Collector) { n.trace = c }

// SetPerturber installs (or with nil removes) the delivery-schedule
// perturber: the fault plane's or the fuzzer's, never both. Install during
// setup, before the kernel runs.
func (n *Network) SetPerturber(p Perturber) { n.perturber = p }

// deliver applies any installed schedule perturbation and completes the
// delivery. It is the single choke point every unicast, flood and local
// delivery funnels through, so a perturber sees the whole message
// schedule.
func (n *Network) deliver(node int, msg protocol.Message, meta Meta) {
	if n.perturber == nil {
		n.deliverFinal(node, msg, meta)
		return
	}
	p := n.perturber(node, msg, meta)
	if p.Drop {
		n.traffic.RecordDropped(msg.Kind, p.Cause)
		return
	}
	n.deliverDelayed(node, msg, meta, p.Delay)
	if p.Dup {
		n.deliverDelayed(node, msg, meta, p.DupDelay)
	}
}

// deliverDelayed completes a perturbed delivery after d (at once when d is
// zero), re-checking that the destination is still up at fire time and
// stamping the actual delivery time into the meta.
func (n *Network) deliverDelayed(node int, msg protocol.Message, meta Meta, d time.Duration) {
	if d <= 0 {
		n.deliverFinal(node, msg, meta)
		return
	}
	p := n.perturbTxs.New()
	p.n, p.node, p.msg, p.meta = n, node, msg, meta
	n.k.AfterTimer(d, "netsim.perturb", p)
}

// perturbTx is one delivery a perturber delayed: a pooled record that is
// its own timer, so a jittered or duplicated delivery allocates nothing.
type perturbTx struct {
	n    *Network
	node int
	msg  protocol.Message
	meta Meta
}

// Fire completes the delayed delivery if the destination is still up.
// Like hopTx.Fire it copies its fields out and returns to the pool first:
// the receiver may send, and a perturbed send may take this very record.
func (p *perturbTx) Fire(k *sim.Kernel) {
	n, node, msg, meta := p.n, p.node, p.msg, p.meta
	p.msg = protocol.Message{} // a parked record must not pin the payload
	n.perturbTxs.Put(p)
	if !n.Up(node) {
		n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
		return
	}
	meta.At = k.Now()
	n.deliverFinal(node, msg, meta)
}

// deliverFinal completes a delivery: traffic ledger, tracer, trace span,
// receiver.
func (n *Network) deliverFinal(node int, msg protocol.Message, meta Meta) {
	n.traffic.RecordDelivered(msg.Kind)
	if n.tracer != nil {
		n.tracer(n.k.Now(), node, msg, meta)
	}
	if n.trace != nil && msg.Trace.TraceID != 0 {
		msg.Trace = n.trace.Emit(msg.Trace, node, ctrace.PhaseTransit,
			msg.Kind.String(), meta.SentAt.Nanoseconds(), meta.At.Nanoseconds())
	}
	if r := n.receivers[node]; r != nil {
		r(n.k, node, msg, meta)
	}
}

// Unicast routes msg from -> to hop by hop along shortest paths on the
// current topology. Delivery is best-effort: partitions, churn mid-flight,
// or the hop bound drop the message (recorded in the traffic ledger), and
// the caller's protocol timers provide recovery — exactly the failure
// model the paper's §4.5 addresses.
func (n *Network) Unicast(from, to int, msg protocol.Message) error {
	if err := msg.Validate(); err != nil {
		return err
	}
	if from < 0 || from >= n.Len() || to < 0 || to >= n.Len() {
		return fmt.Errorf("netsim: unicast %d->%d out of range", from, to)
	}
	n.traffic.RecordOriginated(msg.Kind)
	if from == to {
		// Local delivery is free: no radio transmission happens.
		now := n.k.Now()
		n.deliver(to, msg, Meta{Hops: 0, At: now, SentAt: now})
		return nil
	}
	if !n.Up(from) {
		n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
		return nil
	}
	if n.cfg.Routing == RoutingDSR {
		n.dsrUnicast(from, to, msg)
		return nil
	}
	n.forward(from, to, msg, 0, n.k.Now())
	return nil
}

// forward transmits one hop and schedules the next.
func (n *Network) forward(cur, dst int, msg protocol.Message, hops int, sentAt time.Duration) {
	if hops >= n.cfg.MaxRouteHops {
		n.traffic.RecordDropped(msg.Kind, stats.DropNoRoute)
		return
	}
	g := n.Graph()
	next := g.NextHop(cur, dst)
	if next == radio.Unreachable {
		n.traffic.RecordDropped(msg.Kind, stats.DropNoRoute)
		return
	}
	n.traffic.RecordTx(msg.Kind, msg.Size())
	n.spendTx(cur)
	h := n.hopTxs.New()
	h.n, h.cur, h.next, h.dst, h.hops, h.sentAt, h.msg = n, cur, next, dst, hops, sentAt, msg
	n.k.AfterTimer(n.txDelay(cur, msg.Size()), "netsim.hop", h)
}

// hopTx is one unicast frame in the air: a pooled record carrying what the
// arrival needs that is its own timer, so putting a hop on the kernel
// allocates nothing.
type hopTx struct {
	n                    *Network
	cur, next, dst, hops int
	sentAt               time.Duration
	msg                  protocol.Message
}

// Fire completes the hop. The record copies its fields out and returns to
// the pool before anything else runs: the receiver re-enters Unicast and
// Flood, which may hand this very record out again.
func (h *hopTx) Fire(*sim.Kernel) {
	n, cur, next, dst, hops, sentAt, msg := h.n, h.cur, h.next, h.dst, h.hops, h.sentAt, h.msg
	h.msg = protocol.Message{} // a parked record must not pin the payload
	n.hopTxs.Put(h)
	switch {
	case !n.Up(next):
		// Receiver flipped down while the frame was in the air.
		n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
	case n.cut(cur, next):
		n.traffic.RecordDropped(msg.Kind, stats.DropPartition)
	case n.lost():
		n.traffic.RecordDropped(msg.Kind, stats.DropLoss)
	case next == dst:
		n.spendRx(next)
		n.deliver(dst, msg, Meta{Hops: hops + 1, At: n.k.Now(), SentAt: sentAt})
	default:
		n.spendRx(next)
		n.forward(next, dst, msg, hops+1, sentAt)
	}
}

// floodState is the per-flood bookkeeping: the message (held once for all
// of the flood's receptions), the duplicate-suppression bitmap, the flood
// id, and a count of landings outstanding — scheduled kernel events that
// will still read this state: one per broadcast for data floods (floodRx),
// one per reception for DSR's RREQ wave (dsr.go), whose receivers each
// carry a path of their own. When the last one lands the state returns to
// the network's pool, so steady-state flooding reallocates nothing.
type floodState struct {
	msg     protocol.Message
	visited []bool
	id      uint64
	pending int
	// sentAt is the flood's origination time, carried to every delivery's
	// Meta.SentAt.
	sentAt time.Duration
}

// acquireFlood takes a cleared flood state from the pool, making its
// bitmap on first use.
func (n *Network) acquireFlood() *floodState {
	st := n.floodStates.New()
	if st.visited == nil {
		st.visited = make([]bool, n.Len())
	}
	return st
}

// releaseFlood clears and pools a finished flood's state.
func (n *Network) releaseFlood(st *floodState) {
	clear(st.visited)
	st.pending = 0
	st.msg = protocol.Message{} // a parked state must not pin the payload
	n.floodStates.Put(st)
}

// Flood broadcasts msg from origin with the given TTL. Every distinct node
// reached within TTL hops receives the message exactly once (duplicate
// rebroadcasts are suppressed, as in standard MANET flooding). The origin
// itself does not receive its own flood. Each forwarding node transmits
// once; receptions are charged to every neighbour hearing a transmission
// for the first time.
func (n *Network) Flood(origin, ttl int, msg protocol.Message) error {
	if err := msg.Validate(); err != nil {
		return err
	}
	if origin < 0 || origin >= n.Len() {
		return fmt.Errorf("netsim: flood origin %d out of range", origin)
	}
	if ttl <= 0 {
		return fmt.Errorf("netsim: flood TTL %d must be positive", ttl)
	}
	n.traffic.RecordOriginated(msg.Kind)
	if !n.Up(origin) {
		n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
		return nil
	}
	n.nextFlood++
	st := n.acquireFlood()
	st.msg = msg
	st.id = n.nextFlood
	st.sentAt = n.k.Now()
	st.visited[origin] = true
	n.transmitFlood(origin, ttl, st, 0)
	if st.pending == 0 {
		// No neighbour heard the broadcast; the flood is already over.
		n.releaseFlood(st)
	}
	return nil
}

// transmitFlood performs one node's (re)broadcast of a flood: one frame,
// heard by every neighbour at the same instant, so one kernel event.
func (n *Network) transmitFlood(node, ttlLeft int, st *floodState, hops int) {
	if !n.Up(node) {
		return
	}
	g := n.Graph()
	size := st.msg.Size()
	n.traffic.RecordTx(st.msg.Kind, size)
	n.spendTx(node)
	delay := n.txDelay(node, size)
	var r *floodRx
	row := g.Neighbors(node)
	for _, v := range row {
		if st.visited[v] {
			continue
		}
		st.visited[v] = true
		if r == nil {
			r = n.floodRxs.New()
			r.to = n.hearers.Grow(r.to, len(row))
		}
		r.to = append(r.to, v)
	}
	if r == nil {
		return // nobody new in range: nothing lands
	}
	st.pending++
	r.n, r.st, r.from, r.hops, r.ttlLeft = n, st, node, hops, ttlLeft
	n.k.AfterTimer(delay, "netsim.flood", r)
}

// floodRx is one broadcast of a flood in the air: a pooled record naming
// the flood, the sender, the hop budget and the neighbours hearing it for
// the first time — copied in row order, since the snapshot's CSR may be
// repacked before the frame lands — that is its own timer, so a broadcast
// costs no allocation. The message stays on the floodState.
type floodRx struct {
	n                   *Network
	st                  *floodState
	from, hops, ttlLeft int
	to                  []int32
}

// Fire completes the broadcast: each hearer in turn, in row order, goes
// through the reception checks, the delivery and its own rebroadcast —
// the sequence a kernel event per reception would produce, since those
// events would sit back to back at one instant. Receivers re-enter Flood
// and Unicast and the rebroadcasts draw records too, so this record stays
// out of the pool until the walk is over; the floodState stays live until
// its pending count drains, which this landing's own count guarantees.
func (r *floodRx) Fire(*sim.Kernel) {
	n, st := r.n, r.st
	for _, t := range r.to {
		to := int(t)
		switch {
		case !n.Up(to):
			// Hearer flipped down while the frame was in the air.
			n.traffic.RecordDropped(st.msg.Kind, stats.DropDisconnected)
		case n.cut(r.from, to):
			n.traffic.RecordDropped(st.msg.Kind, stats.DropPartition)
		case n.lost():
			n.traffic.RecordDropped(st.msg.Kind, stats.DropLoss)
		default:
			n.spendRx(to)
			n.deliver(to, st.msg, Meta{Hops: r.hops + 1, At: n.k.Now(), SentAt: st.sentAt, Flood: true, FloodID: st.id})
			if r.ttlLeft > 1 {
				n.transmitFlood(to, r.ttlLeft-1, st, r.hops+1)
			}
		}
	}
	r.st, r.to = nil, r.to[:0]
	n.floodRxs.Put(r)
	if st.pending--; st.pending == 0 {
		n.releaseFlood(st)
	}
}
