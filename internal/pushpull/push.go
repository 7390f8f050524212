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

// waiting is one query parked until the item's next IR arrives.
type waiting struct {
	q *node.Query
}

// Push is the simple push baseline engine.
type Push struct {
	cfg     PushConfig
	ch      *node.Chassis
	waiting []map[data.ItemID][]*waiting // per node
	started bool
	irs     *telemetry.Counter
	parks   *telemetry.Counter
}

// NewPush builds the baseline on the shared chassis.
func NewPush(cfg PushConfig, ch *node.Chassis) (*Push, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("pushpull: nil chassis")
	}
	p := &Push{cfg: cfg, ch: ch, waiting: make([]map[data.ItemID][]*waiting, ch.Net.Len())}
	for i := range p.waiting {
		p.waiting[i] = make(map[data.ItemID][]*waiting)
	}
	return p, nil
}

// Name identifies the strategy.
func (p *Push) Name() string { return "push" }

// Chassis exposes shared metrics.
func (p *Push) Chassis() *node.Chassis { return p.ch }

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
	for nd := 0; nd < p.ch.Net.Len(); nd++ {
		nd := nd
		if err := p.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
		k.After(time.Duration(stagger.Int63n(int64(p.cfg.TTN))), "push.ir", func(kk *sim.Kernel) {
			p.irTick(kk, nd)
		})
	}
	return nil
}

// OnUpdate commits a new version at host's master; cache nodes learn of it
// from the next IR.
func (p *Push) OnUpdate(k *sim.Kernel, host int) {
	m, err := p.ch.Reg.Master(p.ch.Reg.OwnedBy(host))
	if err != nil {
		return
	}
	if _, err := m.Update(k.Now()); err != nil {
		panic(fmt.Sprintf("pushpull: master update failed: %v", err))
	}
}

// OnQuery serves one query. The consistency level is recorded for the
// audit but does not change the baseline's behaviour: simple push always
// validates against the next IR ([Bar94]-family semantics, which is what
// makes its latency exceed half the broadcast interval).
func (p *Push) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := p.ch.Begin(k, host, item, level)
	if p.ch.Reg.Owner(item) == host {
		m, err := p.ch.Reg.Master(item)
		if err != nil {
			p.ch.Fail(q, "unknown-item")
			return
		}
		q.Route = "owner"
		q.Source = host
		p.ch.Answer(k, q, m.Current())
		return
	}
	if !p.ch.Stores[host].Contains(item) {
		// Cache miss: locate a copy first; it still answers only after
		// the next IR validates it, like any other copy.
		p.ch.FetchRing(k, host, item, q.TC, func(kk *sim.Kernel, c data.Copy, _ int, ok bool) {
			if !ok {
				p.ch.Fail(q, "fetch-timeout")
				return
			}
			if err := p.ch.Stores[host].Put(c, kk.Now()); err == nil {
				p.parkQuery(kk, host, item, q)
			} else if cp, have := p.ch.Stores[host].Peek(item); have {
				// A newer copy raced in; park against that one.
				_ = cp
				p.parkQuery(kk, host, item, q)
			} else {
				p.ch.Fail(q, "store-reject")
			}
		})
		return
	}
	// Touch the store so push's accesses are accounted like RPCC's.
	p.ch.Stores[host].Get(item)
	p.parkQuery(k, host, item, q)
}

// parkQuery holds q until item's next IR reaches host.
func (p *Push) parkQuery(k *sim.Kernel, host int, item data.ItemID, q *node.Query) {
	q.Route = "ir-wait"
	p.parks.Inc()
	w := &waiting{q: q}
	p.waiting[host][item] = append(p.waiting[host][item], w)
	k.After(p.cfg.QueryPatience, "push.patience", func(*sim.Kernel) {
		p.ch.Fail(q, "no-ir") // no-op if already answered
	})
}

// irTick is the source host's periodic duty: flood the invalidation
// report network-wide.
func (p *Push) irTick(k *sim.Kernel, nd int) {
	defer k.After(p.cfg.TTN, "push.ir", func(kk *sim.Kernel) { p.irTick(kk, nd) })
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
		parked := p.takeParked(nd, msg.Item)
		p.ch.FetchDirect(k, nd, msg.Item, msg.Trace, func(kk *sim.Kernel, c data.Copy, from int, ok bool) {
			if !ok {
				for _, w := range parked {
					p.ch.Fail(w.q, "refetch-timeout")
				}
				return
			}
			_ = p.ch.Stores[nd].Put(c, kk.Now())
			for _, w := range parked {
				w.q.Source = from
				p.ch.Answer(kk, w.q, c)
			}
		})
		return
	}
	if !have {
		// Copy evicted while queries were parked: refetch for them.
		parked := p.takeParked(nd, msg.Item)
		if len(parked) == 0 {
			return
		}
		p.ch.FetchDirect(k, nd, msg.Item, msg.Trace, func(kk *sim.Kernel, c data.Copy, from int, ok bool) {
			for _, w := range parked {
				if ok {
					w.q.Source = from
					p.ch.Answer(kk, w.q, c)
				} else {
					p.ch.Fail(w.q, "refetch-timeout")
				}
			}
		})
		return
	}
	// Copy is current as of this IR: the IR's origin is the authority
	// vouching for the local copy.
	for _, w := range p.takeParked(nd, msg.Item) {
		w.q.Source = msg.Origin
		p.ch.Answer(k, w.q, cp)
	}
}

func (p *Push) takeParked(nd int, item data.ItemID) []*waiting {
	parked := p.waiting[nd][item]
	delete(p.waiting[nd], item)
	return parked
}
