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

// AdaptiveConfig parameterises the push-with-adaptive-pull engine, after
// the adaptive scheme of Lan et al. [Lan03] that the paper's related work
// cites and its §6 future work ("change the push/pull frequency
// adaptively") points toward. Each (node, item) pair keeps a poll-validity
// window that doubles when a validation finds the copy unchanged and
// halves when it finds an update — TCP-style multiplicative adaptation.
type AdaptiveConfig struct {
	InitialWindow time.Duration
	MinWindow     time.Duration
	MaxWindow     time.Duration
	// PollTimeout bounds one unicast validation round.
	PollTimeout time.Duration
}

// DefaultAdaptiveConfig returns the ablation's defaults.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		InitialWindow: 30 * time.Second,
		MinWindow:     5 * time.Second,
		MaxWindow:     10 * time.Minute,
		PollTimeout:   2 * time.Second,
	}
}

// Validate reports configuration errors.
func (c AdaptiveConfig) Validate() error {
	if c.MinWindow <= 0 || c.MaxWindow < c.MinWindow {
		return fmt.Errorf("pushpull: bad adaptive window bounds [%v, %v]", c.MinWindow, c.MaxWindow)
	}
	if c.InitialWindow < c.MinWindow || c.InitialWindow > c.MaxWindow {
		return fmt.Errorf("pushpull: initial window %v outside [%v, %v]", c.InitialWindow, c.MinWindow, c.MaxWindow)
	}
	if c.PollTimeout <= 0 {
		return fmt.Errorf("pushpull: non-positive poll timeout %v", c.PollTimeout)
	}
	return nil
}

// adaptiveItem is one (node, item) validity window.
type adaptiveItem struct {
	window        time.Duration
	lastValidated time.Duration
	validatedOnce bool
}

// Adaptive is the push-with-adaptive-pull engine. Unlike simple pull it
// unicasts its polls straight to the source host (the requester knows the
// owner, as in the Gnutella-style systems of [Lan03]) and answers from
// the local copy while the adaptive window is open.
type Adaptive struct {
	cfg     AdaptiveConfig
	ch      *node.Chassis
	items   []map[data.ItemID]*adaptiveItem
	rounds  map[uint64]*node.Query
	started bool
	hits    *telemetry.Counter
	polls   *telemetry.Counter
}

// NewAdaptive builds the engine on the shared chassis.
func NewAdaptive(cfg AdaptiveConfig, ch *node.Chassis) (*Adaptive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("pushpull: nil chassis")
	}
	a := &Adaptive{
		cfg:    cfg,
		ch:     ch,
		items:  make([]map[data.ItemID]*adaptiveItem, ch.Net.Len()),
		rounds: make(map[uint64]*node.Query),
	}
	for i := range a.items {
		a.items[i] = make(map[data.ItemID]*adaptiveItem)
	}
	return a, nil
}

// Name identifies the strategy.
func (a *Adaptive) Name() string { return "adaptive-pull" }

// Chassis exposes shared metrics.
func (a *Adaptive) Chassis() *node.Chassis { return a.ch }

// Start installs receivers.
func (a *Adaptive) Start(k *sim.Kernel) error {
	if a.started {
		return fmt.Errorf("pushpull: adaptive already started")
	}
	a.started = true
	a.hits = strategyEvent(a.ch.Hub, "adaptive-pull", "window-hit")
	a.polls = strategyEvent(a.ch.Hub, "adaptive-pull", "poll-unicast")
	// One receiver value shared by every node, not a closure per node.
	recv := func(kk *sim.Kernel, n int, msg protocol.Message, _ netsim.Meta) { a.dispatch(kk, n, msg) }
	for nd := 0; nd < a.ch.Net.Len(); nd++ {
		if err := a.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate commits a new version at host's master.
func (a *Adaptive) OnUpdate(k *sim.Kernel, host int) {
	m, err := a.ch.Reg.Master(a.ch.Reg.OwnedBy(host))
	if err != nil {
		return
	}
	if _, err := m.Update(k.Now()); err != nil {
		panic(fmt.Sprintf("pushpull: master update failed: %v", err))
	}
}

// OnQuery answers from the local copy while its adaptive window is open,
// polling the source otherwise.
func (a *Adaptive) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := a.ch.Begin(k, host, item, level)
	if a.ch.Reg.Owner(item) == host {
		m, err := a.ch.Reg.Master(item)
		if err != nil {
			a.ch.Fail(q, "unknown-item")
			return
		}
		q.Route = "owner"
		q.Source = host
		a.ch.Answer(k, q, m.Current())
		return
	}
	cp, ok := a.ch.Stores[host].Get(item)
	if ok {
		it := a.item(host, item)
		if it.validatedOnce && k.Now()-it.lastValidated < it.window {
			q.Route = "window"
			q.Source = host
			a.hits.Inc()
			a.ch.Answer(k, q, cp)
			return
		}
		a.poll(k, q, cp.Version, false)
		return
	}
	a.poll(k, q, 0, true)
}

func (a *Adaptive) item(host int, item data.ItemID) *adaptiveItem {
	it, ok := a.items[host][item]
	if !ok {
		it = &adaptiveItem{window: a.cfg.InitialWindow}
		a.items[host][item] = it
	}
	return it
}

func (a *Adaptive) poll(k *sim.Kernel, q *node.Query, have data.Version, miss bool) {
	q.Route = "poll-unicast"
	a.polls.Inc()
	a.rounds[q.Seq] = q
	msg := protocol.Message{
		Kind:    protocol.KindPullPoll,
		Item:    q.Item,
		Origin:  q.Host,
		Version: have,
		Seq:     q.Seq,
		Miss:    miss,
	}
	if err := a.ch.Net.Unicast(q.Host, a.ch.Reg.Owner(q.Item), msg); err != nil {
		delete(a.rounds, q.Seq)
		a.ch.Fail(q, "poll-send")
		return
	}
	k.After(a.cfg.PollTimeout, "adaptive.timeout", func(*sim.Kernel) {
		if _, open := a.rounds[q.Seq]; open {
			delete(a.rounds, q.Seq)
			a.ch.Fail(q, "poll-timeout")
		}
	})
}

func (a *Adaptive) dispatch(k *sim.Kernel, nd int, msg protocol.Message) {
	switch msg.Kind {
	case protocol.KindPullPoll:
		a.onPoll(k, nd, msg)
	case protocol.KindPullAck:
		a.onAck(k, nd, msg)
	case protocol.KindPullReply:
		a.onReply(k, nd, msg)
	case protocol.KindDataRequest:
		a.ch.HandleDataRequest(k, nd, msg)
	case protocol.KindDataReply:
		a.ch.HandleDataReply(k, nd, msg)
	}
}

// onPoll answers at the source host, exactly like simple pull.
func (a *Adaptive) onPoll(k *sim.Kernel, nd int, msg protocol.Message) {
	if a.ch.Reg.Owner(msg.Item) != nd {
		return
	}
	m, err := a.ch.Reg.Master(msg.Item)
	if err != nil {
		return
	}
	cur := m.Current()
	if !msg.Miss && msg.Version >= cur.Version {
		_ = a.ch.Net.Unicast(nd, msg.Origin, protocol.Message{
			Kind: protocol.KindPullAck, Item: msg.Item, Origin: nd,
			Version: cur.Version, Seq: msg.Seq,
		})
		return
	}
	_ = a.ch.Net.Unicast(nd, msg.Origin, protocol.Message{
		Kind: protocol.KindPullReply, Item: msg.Item, Origin: nd,
		Version: cur.Version, Copy: cur, Seq: msg.Seq,
	})
}

// onAck: copy unchanged — widen the window (back off polling).
func (a *Adaptive) onAck(k *sim.Kernel, nd int, msg protocol.Message) {
	q, open := a.rounds[msg.Seq]
	if !open || q.Host != nd {
		return
	}
	delete(a.rounds, msg.Seq)
	it := a.item(nd, msg.Item)
	it.window *= 2
	if it.window > a.cfg.MaxWindow {
		it.window = a.cfg.MaxWindow
	}
	it.lastValidated = k.Now()
	it.validatedOnce = true
	cp, have := a.ch.Stores[nd].Peek(msg.Item)
	if !have {
		a.ch.Fail(q, "copy-lost")
		return
	}
	q.Source = msg.Origin
	a.ch.Answer(k, q, cp)
}

// onReply: copy changed — tighten the window (poll more often).
func (a *Adaptive) onReply(k *sim.Kernel, nd int, msg protocol.Message) {
	q, open := a.rounds[msg.Seq]
	if !open || q.Host != nd {
		return
	}
	delete(a.rounds, msg.Seq)
	it := a.item(nd, msg.Item)
	it.window /= 2
	if it.window < a.cfg.MinWindow {
		it.window = a.cfg.MinWindow
	}
	it.lastValidated = k.Now()
	it.validatedOnce = true
	_ = a.ch.Stores[nd].Put(msg.Copy, k.Now())
	q.Source = msg.Origin
	a.ch.Answer(k, q, msg.Copy)
}

// Window reports host's current adaptive window for item (diagnostics).
func (a *Adaptive) Window(host int, item data.ItemID) time.Duration {
	if it, ok := a.items[host][item]; ok {
		return it.window
	}
	return a.cfg.InitialWindow
}
