// Package pushpull implements the two baseline strategies the paper
// compares RPCC against (§5): the simple push strategy — every source
// host periodically floods an invalidation report (IR) network-wide, and
// queries wait for the next IR to validate the local copy — and the
// simple pull strategy — every query floods a poll toward the source
// host.
package pushpull

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
)

// PushConfig parameterises the simple push baseline.
type PushConfig struct {
	// TTN is the IR broadcast interval (Table 1: 2 minutes).
	TTN time.Duration
	// BroadcastTTL is the IR flood scope (Table 1 TTL_BR: 8 hops).
	BroadcastTTL int
	// QueryPatience is how long a query waits for an IR before failing;
	// it must comfortably exceed one broadcast interval.
	QueryPatience time.Duration
	// ActiveSource, when non-nil, restricts IR broadcasting to hosts for
	// which it returns true (the Fig 9 single-source scenario).
	ActiveSource func(host int) bool
}

// DefaultPushConfig follows Table 1.
func DefaultPushConfig() PushConfig {
	return PushConfig{
		TTN:           2 * time.Minute,
		BroadcastTTL:  8,
		QueryPatience: 5 * time.Minute,
	}
}

// Validate reports configuration errors.
func (c PushConfig) Validate() error {
	if c.TTN <= 0 {
		return fmt.Errorf("pushpull: non-positive TTN %v", c.TTN)
	}
	if c.BroadcastTTL <= 0 {
		return fmt.Errorf("pushpull: non-positive broadcast TTL %d", c.BroadcastTTL)
	}
	if c.QueryPatience < c.TTN {
		return fmt.Errorf("pushpull: query patience %v below one IR interval %v", c.QueryPatience, c.TTN)
	}
	return nil
}

// waiting is one query parked until the item's next IR arrives, linked
// behind the query parked before it. It is the query's record and owns
// the query: the FetchDone of a miss's ring fetch and the Timer of its
// patience. Once parked it sits in its (node, item) chain, or in the
// refetch an IR detaches that chain into (in), with timer pending. An
// answer or failure releases it where it resolves the query (release);
// the patience firing first unlinks it from its chain.
type waiting struct {
	p     *Push
	q     *node.Query
	next  *waiting
	in    *refetch
	timer *sim.Event
}

// link appends w to the arrival-ordered chain that starts at *head.
func link(head **waiting, w *waiting) {
	for *head != nil {
		head = &(*head).next
	}
	*head = w
}

// unlink removes w from the chain that starts at *head, which holds it.
func unlink(head **waiting, w *waiting) {
	for *head != w {
		head = &(*head).next
	}
	*head = w.next
}

// refetch is the FetchDone of the direct fetch an IR starts for the
// queries parked at nd when their copy is stale or gone. The fetch is its
// only holder, so FetchDone releases it.
type refetch struct {
	p      *Push
	nd     int
	parked *waiting
	// store puts the fetched copy before answering (it replaces a stale
	// one; an evicted copy is not re-cached).
	store bool
}

// irTimer is one source host's periodic IR duty.
type irTimer struct {
	p  *Push
	nd int
}

// Push is the simple push baseline engine.
type Push struct {
	cfg     PushConfig
	ch      *node.Chassis
	waiting []map[data.ItemID]*waiting // per node: each item's chain
	// Query and refetch records go back to their pools where their work
	// is resolved (waiting, refetch).
	waits     sim.Pool[waiting]
	refetches sim.Pool[refetch]
	ticks     []irTimer // per node
	started   bool
	irs       *telemetry.Counter
	parks     *telemetry.Counter
}

// NewPush builds the baseline on the shared chassis.
func NewPush(cfg PushConfig, ch *node.Chassis) (*Push, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("pushpull: nil chassis")
	}
	p := &Push{cfg: cfg, ch: ch, waiting: make([]map[data.ItemID]*waiting, ch.Net.Len())}
	for i := range p.waiting {
		p.waiting[i] = make(map[data.ItemID]*waiting)
	}
	return p, nil
}

// Start installs receivers and schedules the staggered IR broadcasts.
func (p *Push) Start(k *sim.Kernel) error {
	if p.started {
		return fmt.Errorf("pushpull: push already started")
	}
	p.started = true
	p.irs = strategyEvent(p.ch.Hub, "push", "ir-flood")
	p.parks = strategyEvent(p.ch.Hub, "push", "query-parked")
	stagger := k.Stream("push.stagger")
	// One receiver value shared by every node, not a closure per node.
	recv := func(kk *sim.Kernel, n int, msg protocol.Message, _ netsim.Meta) { p.dispatch(kk, n, msg) }
	// Each node's IR timer is a record that re-arms itself.
	p.ticks = make([]irTimer, p.ch.Net.Len())
	for nd := range p.ticks {
		if err := p.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
		p.ticks[nd] = irTimer{p: p, nd: nd}
		k.AfterTimer(time.Duration(stagger.Int63n(int64(p.cfg.TTN))), "push.ir", &p.ticks[nd])
	}
	return nil
}

// OnUpdate commits a new version at host's master; cache nodes learn of it
// from the next IR.
func (p *Push) OnUpdate(k *sim.Kernel, host int) { p.ch.Commit(k, host) }

// OnQuery serves one query. The consistency level is recorded for the
// audit but does not change the baseline's behaviour: simple push always
// validates against the next IR ([Bar94]-family semantics, which is what
// makes its latency exceed half the broadcast interval).
func (p *Push) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := p.ch.Begin(k, host, item, level)
	if p.ch.AnswerOwner(k, q) {
		return
	}
	w := p.waits.New()
	*w = waiting{p: p, q: q}
	if !p.ch.Stores[host].Contains(item) {
		// Cache miss: locate a copy first; it still answers only after
		// the next IR validates it, like any other copy (FetchDone).
		p.ch.FetchRing(k, host, item, q.TC, w)
		return
	}
	// Touch the store so push's accesses are accounted like RPCC's.
	p.ch.Stores[host].Get(item)
	p.parkQuery(k, w)
}

// FetchDone parks a miss's query once its copy is cached.
func (w *waiting) FetchDone(k *sim.Kernel, c data.Copy, _ int, ok bool) {
	p, q := w.p, w.q
	if !ok {
		p.ch.Fail(q, "fetch-timeout")
		p.release(k, w)
		return
	}
	// A rejected put means a newer copy raced in; park against that one.
	if err := p.ch.Stores[q.Host].Put(c, k.Now()); err == nil || p.ch.Stores[q.Host].Contains(q.Item) {
		p.parkQuery(k, w)
	} else {
		p.ch.Fail(q, "store-reject")
		p.release(k, w)
	}
}

// release is w's one release point, once its query is resolved and w is
// off every chain: it cancels the pending patience timeout and gives w
// and its query back to their pools.
func (p *Push) release(k *sim.Kernel, w *waiting) {
	k.Cancel(w.timer)
	p.ch.Release(w.q)
	p.waits.Put(w)
}

// PoolAudits checks the lifecycles of the query and refetch pools
// (sim.Pool.Audit).
func (p *Push) PoolAudits() []sim.PoolAudit {
	return []sim.PoolAudit{p.waits.Audit("pushpull.waiting"), p.refetches.Audit("pushpull.refetch")}
}

// parkQuery holds w's query until its item's next IR reaches its host.
func (p *Push) parkQuery(k *sim.Kernel, w *waiting) {
	host, item := w.q.Host, w.q.Item
	w.q.Route = "ir-wait"
	p.parks.Inc()
	head := p.waiting[host][item]
	link(&head, w)
	p.waiting[host][item] = head
	w.timer = k.AfterTimer(p.cfg.QueryPatience, "push.patience", w)
}

// Fire is the query's patience running out: it unlinks w from the chain
// that holds it and fails the query.
func (w *waiting) Fire(k *sim.Kernel) {
	w.timer = nil
	p, host, item := w.p, w.q.Host, w.q.Item
	if w.in != nil {
		unlink(&w.in.parked, w)
	} else {
		head := p.waiting[host][item]
		unlink(&head, w)
		p.waiting[host][item] = head
	}
	p.ch.Fail(w.q, "no-ir")
	p.release(k, w)
}

// Fire runs the IR duty and re-arms the timer.
func (t *irTimer) Fire(k *sim.Kernel) {
	t.p.irTick(k, t.nd)
	k.AfterTimer(t.p.cfg.TTN, "push.ir", t)
}

// irTick is the source host's periodic duty: flood the invalidation
// report network-wide. Its timer renews TTN after it.
func (p *Push) irTick(k *sim.Kernel, nd int) {
	if p.cfg.ActiveSource != nil && !p.cfg.ActiveSource(nd) {
		return
	}
	item := p.ch.Reg.OwnedBy(nd)
	m, err := p.ch.Reg.Master(item)
	if err != nil {
		return
	}
	ir := protocol.Message{
		Kind:    protocol.KindIR,
		Item:    item,
		Origin:  nd,
		Version: m.Current().Version,
	}
	p.irs.Inc()
	_ = p.ch.Net.Flood(nd, p.cfg.BroadcastTTL, ir)
}

func (p *Push) dispatch(k *sim.Kernel, nd int, msg protocol.Message) {
	switch msg.Kind {
	case protocol.KindIR:
		p.onIR(k, nd, msg)
	case protocol.KindDataRequest:
		p.ch.HandleDataRequest(k, nd, msg)
	case protocol.KindDataReply:
		p.ch.HandleDataReply(k, nd, msg)
	}
}

// onIR validates or refreshes the local copy and releases parked queries.
func (p *Push) onIR(k *sim.Kernel, nd int, msg protocol.Message) {
	cp, have := p.ch.Stores[nd].Peek(msg.Item)
	if have && cp.Version < msg.Version {
		// Stale: refetch from the source, then answer the parked queries
		// with the fresh copy.
		p.refetch(k, nd, msg, true)
		return
	}
	if !have {
		// Copy evicted while queries were parked: refetch for them.
		if p.waiting[nd][msg.Item] != nil {
			p.refetch(k, nd, msg, false)
		}
		return
	}
	// Copy is current as of this IR: the IR's origin is the authority
	// vouching for the local copy.
	for w := p.takeParked(nd, msg.Item); w != nil; {
		next := w.next
		w.q.Source = msg.Origin
		p.ch.Answer(k, w.q, cp)
		p.release(k, w)
		w = next
	}
}

// refetch takes the queries parked at nd for the IR's item and fetches the
// item from its source for them.
func (p *Push) refetch(k *sim.Kernel, nd int, msg protocol.Message, store bool) {
	r := p.refetches.New()
	*r = refetch{p: p, nd: nd, parked: p.takeParked(nd, msg.Item), store: store}
	for w := r.parked; w != nil; w = w.next {
		w.in = r
	}
	p.ch.FetchDirect(k, nd, msg.Item, msg.Trace, r)
}

// FetchDone answers the parked queries with the fetched copy, or fails
// them.
func (r *refetch) FetchDone(k *sim.Kernel, c data.Copy, from int, ok bool) {
	p := r.p
	if ok && r.store {
		_ = p.ch.Stores[r.nd].Put(c, k.Now())
	}
	for w := r.parked; w != nil; {
		next := w.next
		if ok {
			w.q.Source = from
			p.ch.Answer(k, w.q, c)
		} else {
			p.ch.Fail(w.q, "refetch-timeout")
		}
		p.release(k, w)
		w = next
	}
	p.refetches.Put(r)
}

// takeParked detaches the chain of queries parked at nd for item and
// returns its head. The map keeps the emptied entry, so parking there
// again costs no map insert.
func (p *Push) takeParked(nd int, item data.ItemID) *waiting {
	head := p.waiting[nd][item]
	if head != nil {
		p.waiting[nd][item] = nil
	}
	return head
}
