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

// strategyEvent returns a cached counter handle in the shared
// rpcc_strategy_events_total family. A nil hub yields a nil handle whose
// Inc is a no-op, so strategies instrument unconditionally.
func strategyEvent(h *telemetry.Hub, strategy, event string) *telemetry.Counter {
	return h.Counter("rpcc_strategy_events_total",
		"Strategy-specific protocol events (per strategy and event).",
		telemetry.Label{Key: "strategy", Value: strategy},
		telemetry.Label{Key: "event", Value: event})
}

// PullConfig parameterises the simple pull baseline.
type PullConfig struct {
	// BroadcastTTL is the poll flood scope (Table 1 TTL_BR: 8 hops).
	BroadcastTTL int
	// PollTimeout bounds one poll round before the query fails.
	PollTimeout time.Duration
}

// DefaultPullConfig follows Table 1.
func DefaultPullConfig() PullConfig {
	return PullConfig{
		BroadcastTTL: 8,
		PollTimeout:  2 * time.Second,
	}
}

// Validate reports configuration errors.
func (c PullConfig) Validate() error {
	if c.BroadcastTTL <= 0 {
		return fmt.Errorf("pushpull: non-positive broadcast TTL %d", c.BroadcastTTL)
	}
	if c.PollTimeout <= 0 {
		return fmt.Errorf("pushpull: non-positive poll timeout %v", c.PollTimeout)
	}
	return nil
}

// Pull is the simple pull baseline: every query floods a poll that only
// the item's source host answers. Heavy on traffic, light on latency —
// exactly the trade-off Fig 7/8 show.
type Pull struct {
	cfg     PullConfig
	ch      *node.Chassis
	rounds  map[uint64]*pullRound
	pool    sim.Pool[pullRound]
	started bool
	polls   *telemetry.Counter
}

// pullRound is one poll flood, taken from the Pull's pool: it owns its
// query and is its timeout. The rounds map holds it by seq and timer is
// its pending timeout until an ack, a reply or the timeout resolves the
// query, which ends the round (end).
type pullRound struct {
	p     *Pull
	q     *node.Query
	timer *sim.Event
}

// Fire fails the query: no ack or reply came in time.
func (r *pullRound) Fire(k *sim.Kernel) {
	r.timer = nil
	r.p.ch.Fail(r.q, "poll-timeout")
	r.p.end(k, r)
}

// end is r's one release point: it drops r from the rounds map, cancels
// its pending timeout and gives r and its query back to their pools.
func (p *Pull) end(k *sim.Kernel, r *pullRound) {
	delete(p.rounds, r.q.Seq)
	k.Cancel(r.timer)
	p.ch.Release(r.q)
	p.pool.Put(r)
}

// PoolAudits checks the lifecycle of the round pool (sim.Pool.Audit).
func (p *Pull) PoolAudits() []sim.PoolAudit {
	return []sim.PoolAudit{p.pool.Audit("pushpull.pullRound")}
}

// NewPull builds the baseline on the shared chassis.
func NewPull(cfg PullConfig, ch *node.Chassis) (*Pull, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("pushpull: nil chassis")
	}
	return &Pull{cfg: cfg, ch: ch, rounds: make(map[uint64]*pullRound)}, nil
}

// Name identifies the strategy.
func (p *Pull) Name() string { return "pull" }

// Chassis exposes shared metrics.
func (p *Pull) Chassis() *node.Chassis { return p.ch }

// Start installs receivers. Pull has no periodic duties.
func (p *Pull) Start(k *sim.Kernel) error {
	if p.started {
		return fmt.Errorf("pushpull: pull already started")
	}
	p.started = true
	p.polls = strategyEvent(p.ch.Hub, "pull", "poll-flood")
	// One receiver value shared by every node, not a closure per node.
	recv := func(kk *sim.Kernel, n int, msg protocol.Message, _ netsim.Meta) { p.dispatch(kk, n, msg) }
	for nd := 0; nd < p.ch.Net.Len(); nd++ {
		if err := p.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate commits a new version at host's master. Pull sources never
// push anything; cache nodes discover updates by polling.
func (p *Pull) OnUpdate(k *sim.Kernel, host int) {
	m, err := p.ch.Reg.Master(p.ch.Reg.OwnedBy(host))
	if err != nil {
		return
	}
	if _, err := m.Update(k.Now()); err != nil {
		panic(fmt.Sprintf("pushpull: master update failed: %v", err))
	}
}

// OnQuery serves one query by polling the source host, whatever the
// requested level — simple pull validates every request.
func (p *Pull) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := p.ch.Begin(k, host, item, level)
	if p.ch.Reg.Owner(item) == host {
		m, err := p.ch.Reg.Master(item)
		if err != nil {
			p.ch.Fail(q, "unknown-item")
			p.ch.Release(q)
			return
		}
		q.Route = "owner"
		q.Source = host
		p.ch.Answer(k, q, m.Current())
		p.ch.Release(q)
		return
	}
	var have data.Version
	miss := true
	if cp, ok := p.ch.Stores[host].Get(item); ok {
		have = cp.Version
		miss = false
	}
	q.Route = "poll-flood"
	p.polls.Inc()
	r := p.pool.New()
	*r = pullRound{p: p, q: q}
	p.rounds[q.Seq] = r
	poll := protocol.Message{
		Kind:    protocol.KindPullPoll,
		Item:    item,
		Origin:  host,
		Version: have,
		Seq:     q.Seq,
		Miss:    miss,
	}
	if err := p.ch.Net.Flood(host, p.cfg.BroadcastTTL, poll); err != nil {
		p.ch.Fail(q, "poll-send")
		p.end(k, r)
		return
	}
	r.timer = k.AfterTimer(p.cfg.PollTimeout, "pull.timeout", r)
}

func (p *Pull) dispatch(k *sim.Kernel, nd int, msg protocol.Message) {
	switch msg.Kind {
	case protocol.KindPullPoll:
		p.onPoll(k, nd, msg)
	case protocol.KindPullAck:
		p.onAck(k, nd, msg)
	case protocol.KindPullReply:
		p.onReply(k, nd, msg)
	case protocol.KindDataRequest:
		p.ch.HandleDataRequest(k, nd, msg)
	case protocol.KindDataReply:
		p.ch.HandleDataReply(k, nd, msg)
	}
}

// onPoll answers at the source host only.
func (p *Pull) onPoll(k *sim.Kernel, nd int, msg protocol.Message) {
	if p.ch.Reg.Owner(msg.Item) != nd {
		return
	}
	m, err := p.ch.Reg.Master(msg.Item)
	if err != nil {
		return
	}
	cur := m.Current()
	if !msg.Miss && msg.Version >= cur.Version {
		ack := protocol.Message{
			Kind:    protocol.KindPullAck,
			Item:    msg.Item,
			Origin:  nd,
			Version: cur.Version,
			Seq:     msg.Seq,
		}
		_ = p.ch.Net.Unicast(nd, msg.Origin, ack)
		return
	}
	reply := protocol.Message{
		Kind:    protocol.KindPullReply,
		Item:    msg.Item,
		Origin:  nd,
		Version: cur.Version,
		Copy:    cur,
		Seq:     msg.Seq,
	}
	_ = p.ch.Net.Unicast(nd, msg.Origin, reply)
}

func (p *Pull) onAck(k *sim.Kernel, nd int, msg protocol.Message) {
	r, open := p.rounds[msg.Seq]
	if !open || r.q.Host != nd {
		return
	}
	if cp, have := p.ch.Stores[nd].Peek(msg.Item); have {
		r.q.Source = msg.Origin
		p.ch.Answer(k, r.q, cp)
	} else {
		p.ch.Fail(r.q, "copy-lost")
	}
	p.end(k, r)
}

func (p *Pull) onReply(k *sim.Kernel, nd int, msg protocol.Message) {
	r, open := p.rounds[msg.Seq]
	if !open || r.q.Host != nd {
		return
	}
	_ = p.ch.Stores[nd].Put(msg.Copy, k.Now())
	r.q.Source = msg.Origin
	p.ch.Answer(k, r.q, msg.Copy)
	p.end(k, r)
}
