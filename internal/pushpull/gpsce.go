package pushpull

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// GPSCEConfig parameterises the location-aided comparator.
type GPSCEConfig struct {
	// ReRegisterEvery is how often a cache node refreshes its position
	// with the source host.
	ReRegisterEvery time.Duration
	// FetchTimeout bounds one geo-routed refetch round.
	FetchTimeout time.Duration
}

// DefaultGPSCEConfig returns 2-minute position refreshes.
func DefaultGPSCEConfig() GPSCEConfig {
	return GPSCEConfig{
		ReRegisterEvery: 2 * time.Minute,
		FetchTimeout:    2 * time.Second,
	}
}

// Validate reports configuration errors.
func (c GPSCEConfig) Validate() error {
	if c.ReRegisterEvery <= 0 {
		return fmt.Errorf("pushpull: non-positive re-register period %v", c.ReRegisterEvery)
	}
	if c.FetchTimeout <= 0 {
		return fmt.Errorf("pushpull: non-positive fetch timeout %v", c.FetchTimeout)
	}
	return nil
}

// gpsceItem is one cache node's state for one cached item.
type gpsceItem struct {
	valid     bool
	sourcePos geo.Point
	posKnown  bool
}

// GPSCE is a reconstruction of the location-aided cache-invalidation
// family the paper's related work cites (Lim et al.'s GPSCE [Lim04],
// built on the stateful AS scheme of Kahol et al. [Kah01]): the source
// host keeps per-cache-node state — here, each cache node's last GPS
// position — and on every update sends an invalidation directly to each
// registered cache node via greedy geographic forwarding, with no
// flooding anywhere in the control plane. Queries on a still-valid copy
// answer immediately; invalidated copies refetch from the source, again
// geo-routed.
//
// The scheme is cheap (unicasts only) and fast (eager invalidation), and
// its weakness is exactly what the paper says keeps it niche: it needs
// GPS hardware, and stale positions or greedy-forwarding voids silently
// lose invalidations — measured here as strong-consistency violations
// the auditor charges against it.
type GPSCE struct {
	cfg GPSCEConfig
	ch  *node.Chassis
	// net is the chassis transport narrowed to its geo-aware interface;
	// GPSCE is the one strategy that cannot run over a position-blind
	// transport (it geo-routes invalidations), so the narrowing happens
	// once at construction and fails loudly.
	net node.GeoTransport
	// registry is the source-side state: per source node, the last known
	// position of every registered cache node of its item.
	registry []map[int]geo.Point
	// items is the cache-side state per (node, item).
	items     []map[data.ItemID]*gpsceItem
	rounds    map[uint64]*node.Query
	started   bool
	invs      *telemetry.Counter
	refetches *telemetry.Counter
}

// NewGPSCE builds the engine on the shared chassis.
func NewGPSCE(cfg GPSCEConfig, ch *node.Chassis) (*GPSCE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("pushpull: nil chassis")
	}
	gnet, ok := ch.Net.(node.GeoTransport)
	if !ok {
		return nil, fmt.Errorf("pushpull: gpsce requires a position-aware transport (got %T)", ch.Net)
	}
	g := &GPSCE{
		cfg:      cfg,
		ch:       ch,
		net:      gnet,
		registry: make([]map[int]geo.Point, ch.Net.Len()),
		items:    make([]map[data.ItemID]*gpsceItem, ch.Net.Len()),
		rounds:   make(map[uint64]*node.Query),
	}
	for i := range g.registry {
		g.registry[i] = make(map[int]geo.Point)
		g.items[i] = make(map[data.ItemID]*gpsceItem)
	}
	return g, nil
}

// Name identifies the strategy.
func (g *GPSCE) Name() string { return "gpsce" }

// Chassis exposes shared metrics.
func (g *GPSCE) Chassis() *node.Chassis { return g.ch }

// Warm pre-places a copy and performs the placement-time rendezvous: the
// cache node learns the source's position and the source registers the
// cache node's — both sides are co-informed when placement happens.
func (g *GPSCE) Warm(k *sim.Kernel, host int, c data.Copy) {
	if err := g.ch.Stores[host].Put(c, k.Now()); err != nil {
		return
	}
	owner := g.ch.Reg.Owner(c.ID)
	g.items[host][c.ID] = &gpsceItem{
		valid:     true,
		sourcePos: g.net.Position(owner),
		posKnown:  true,
	}
	g.registry[owner][host] = g.net.Position(host)
}

// Start installs receivers and schedules the staggered position refresh.
func (g *GPSCE) Start(k *sim.Kernel) error {
	if g.started {
		return fmt.Errorf("pushpull: gpsce already started")
	}
	g.started = true
	g.invs = strategyEvent(g.ch.Hub, "gpsce", "geo-inv")
	g.refetches = strategyEvent(g.ch.Hub, "gpsce", "geo-refetch")
	// One receiver value shared by every node, not a closure per node.
	recv := func(kk *sim.Kernel, n int, msg protocol.Message, _ netsim.Meta) { g.dispatch(kk, n, msg) }
	for nd := 0; nd < g.ch.Net.Len(); nd++ {
		if err := g.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
	}
	stagger := k.Stream("gpsce.stagger")
	for nd := 0; nd < g.ch.Net.Len(); nd++ {
		nd := nd
		k.After(time.Duration(stagger.Int63n(int64(g.cfg.ReRegisterEvery))), "gpsce.register", func(kk *sim.Kernel) {
			g.registerTick(kk, nd)
		})
	}
	return nil
}

// registerTick refreshes this node's position with every source whose
// item it caches.
func (g *GPSCE) registerTick(k *sim.Kernel, nd int) {
	defer k.After(g.cfg.ReRegisterEvery, "gpsce.register", func(kk *sim.Kernel) {
		g.registerTick(kk, nd)
	})
	myPos := g.net.Position(nd)
	items := make([]data.ItemID, 0, len(g.items[nd]))
	for item := range g.items[nd] {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		st := g.items[nd][item]
		if !st.posKnown {
			continue
		}
		owner := g.ch.Reg.Owner(item)
		reg := protocol.Message{
			Kind:   protocol.KindRegister,
			Item:   item,
			Origin: nd,
			Pos:    myPos,
			HasPos: true,
		}
		_ = g.net.GeoUnicast(nd, owner, st.sourcePos, reg)
	}
}

// OnUpdate commits a new version and eagerly geo-unicasts GEO_INV to
// every registered cache node — the stateful AS push.
func (g *GPSCE) OnUpdate(k *sim.Kernel, host int) {
	item := g.ch.Reg.OwnedBy(host)
	m, err := g.ch.Reg.Master(item)
	if err != nil {
		return
	}
	cur, err := m.Update(k.Now())
	if err != nil {
		panic(fmt.Sprintf("pushpull: master update failed: %v", err))
	}
	srcPos := g.net.Position(host)
	cacheNodes := make([]int, 0, len(g.registry[host]))
	for cacheNode := range g.registry[host] {
		cacheNodes = append(cacheNodes, cacheNode)
	}
	sort.Ints(cacheNodes)
	for _, cacheNode := range cacheNodes {
		lastPos := g.registry[host][cacheNode]
		inv := protocol.Message{
			Kind:    protocol.KindGeoInv,
			Item:    item,
			Origin:  host,
			Version: cur.Version,
			Pos:     srcPos,
			HasPos:  true,
		}
		g.invs.Inc()
		_ = g.net.GeoUnicast(host, cacheNode, lastPos, inv)
	}
}

// OnQuery serves one query: valid copies answer immediately (the source
// would have invalidated them), invalid ones refetch geo-routed.
func (g *GPSCE) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := g.ch.Begin(k, host, item, level)
	if g.ch.Reg.Owner(item) == host {
		m, err := g.ch.Reg.Master(item)
		if err != nil {
			g.ch.Fail(q, "unknown-item")
			return
		}
		q.Route = "owner"
		q.Source = host
		g.ch.Answer(k, q, m.Current())
		return
	}
	cp, ok := g.ch.Stores[host].Get(item)
	if !ok {
		q.Route = "fetch"
		// Cache miss: locate any copy; the fetched copy starts valid and
		// registration catches up at the next placement rendezvous.
		g.ch.FetchRing(k, host, item, q.TC, func(kk *sim.Kernel, c data.Copy, from int, fok bool) {
			if !fok {
				g.ch.Fail(q, "fetch-timeout")
				return
			}
			_ = g.ch.Stores[host].Put(c, kk.Now())
			st := &gpsceItem{valid: true}
			if from == g.ch.Reg.Owner(item) {
				st.sourcePos = g.net.Position(from)
				st.posKnown = true
				g.registry[from][host] = g.net.Position(host)
			}
			g.items[host][item] = st
			q.Source = from
			g.ch.Answer(kk, q, c)
		})
		return
	}
	st, have := g.items[host][item]
	if !have {
		st = &gpsceItem{valid: true}
		g.items[host][item] = st
	}
	if st.valid {
		q.Route = "local"
		q.Source = host
		g.ch.Answer(k, q, cp)
		return
	}
	// Invalidated: geo-routed refetch from the source.
	q.Route = "geo-refetch"
	g.refetches.Inc()
	g.rounds[q.Seq] = q
	req := protocol.Message{
		Kind:   protocol.KindDataRequest,
		Item:   item,
		Origin: host,
		Seq:    q.Seq,
		Pos:    g.net.Position(host),
		HasPos: true,
	}
	owner := g.ch.Reg.Owner(item)
	target := st.sourcePos
	if !st.posKnown {
		target = g.net.Position(owner) // degraded: no better belief
	}
	if err := g.net.GeoUnicast(host, owner, target, req); err != nil {
		delete(g.rounds, q.Seq)
		g.ch.Fail(q, "fetch-send")
		return
	}
	k.After(g.cfg.FetchTimeout, "gpsce.fetch.timeout", func(*sim.Kernel) {
		if _, open := g.rounds[q.Seq]; open {
			delete(g.rounds, q.Seq)
			g.ch.Fail(q, "fetch-timeout")
		}
	})
}

func (g *GPSCE) dispatch(k *sim.Kernel, nd int, msg protocol.Message) {
	switch msg.Kind {
	case protocol.KindRegister:
		g.onRegister(k, nd, msg)
	case protocol.KindGeoInv:
		g.onGeoInv(k, nd, msg)
	case protocol.KindDataRequest:
		g.onDataRequest(k, nd, msg)
	case protocol.KindDataReply:
		g.onDataReply(k, nd, msg)
	}
}

// onRegister records the cache node's fresh position and confirms with a
// GEO_INV carrying the current version — doubling as a validation.
func (g *GPSCE) onRegister(k *sim.Kernel, nd int, msg protocol.Message) {
	if g.ch.Reg.Owner(msg.Item) != nd || !msg.HasPos {
		return
	}
	g.registry[nd][msg.Origin] = msg.Pos
	m, err := g.ch.Reg.Master(msg.Item)
	if err != nil {
		return
	}
	ack := protocol.Message{
		Kind:    protocol.KindGeoInv,
		Item:    msg.Item,
		Origin:  nd,
		Version: m.Current().Version,
		Pos:     g.net.Position(nd),
		HasPos:  true,
	}
	_ = g.net.GeoUnicast(nd, msg.Origin, msg.Pos, ack)
}

// onGeoInv updates the cache node's view: stale versions invalidate the
// copy, matching versions re-validate it; either way the source's
// position is refreshed.
func (g *GPSCE) onGeoInv(k *sim.Kernel, nd int, msg protocol.Message) {
	st, ok := g.items[nd][msg.Item]
	if !ok {
		return
	}
	if msg.HasPos {
		st.sourcePos = msg.Pos
		st.posKnown = true
	}
	cp, have := g.ch.Stores[nd].Peek(msg.Item)
	if !have {
		return
	}
	st.valid = cp.Version >= msg.Version
}

// onDataRequest serves a geo-routed refetch at the source, replying along
// the requester's advertised position.
func (g *GPSCE) onDataRequest(k *sim.Kernel, nd int, msg protocol.Message) {
	if g.ch.Reg.Owner(msg.Item) != nd {
		// Non-owners may still hear ring-fetch floods; the shared
		// chassis path answers those.
		g.ch.HandleDataRequest(k, nd, msg)
		return
	}
	m, err := g.ch.Reg.Master(msg.Item)
	if err != nil {
		return
	}
	cur := m.Current()
	if msg.HasPos {
		g.registry[nd][msg.Origin] = msg.Pos
	}
	reply := protocol.Message{
		Kind:    protocol.KindDataReply,
		Item:    msg.Item,
		Origin:  nd,
		Version: cur.Version,
		Copy:    cur,
		Seq:     msg.Seq,
		Pos:     g.net.Position(nd),
		HasPos:  true,
	}
	if msg.HasPos {
		_ = g.net.GeoUnicast(nd, msg.Origin, msg.Pos, reply)
		return
	}
	_ = g.ch.Net.Unicast(nd, msg.Origin, reply)
}

// onDataReply resolves a geo refetch round (or hands ring-fetch replies
// to the chassis).
func (g *GPSCE) onDataReply(k *sim.Kernel, nd int, msg protocol.Message) {
	q, open := g.rounds[msg.Seq]
	if !open || q.Host != nd {
		g.ch.HandleDataReply(k, nd, msg)
		return
	}
	delete(g.rounds, msg.Seq)
	_ = g.ch.Stores[nd].Put(msg.Copy, k.Now())
	if st, ok := g.items[nd][msg.Item]; ok {
		st.valid = true
		if msg.HasPos {
			st.sourcePos = msg.Pos
			st.posKnown = true
		}
	}
	q.Source = msg.Origin
	g.ch.Answer(k, q, msg.Copy)
}
