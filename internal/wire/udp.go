package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// TransportConfig parameterises a UDP transport.
type TransportConfig struct {
	// Self is this daemon's node id.
	Self int
	// Nodes is the cluster width (node ids are 0..Nodes-1).
	Nodes int
	// Peers maps node id -> "host:port". Every id the protocol may
	// address must be present; Self's entry is its advertised address.
	Peers map[int]string
	// Conn, when non-nil, is a pre-bound socket to use instead of
	// listening on Peers[Self] — the loopback cluster harness binds all
	// sockets first to learn their kernel-assigned ports.
	Conn *net.UDPConn
}

// Validate reports configuration errors.
func (c TransportConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("wire: nodes %d must be > 0", c.Nodes)
	}
	if c.Self < 0 || c.Self >= c.Nodes {
		return fmt.Errorf("wire: self %d out of range [0,%d)", c.Self, c.Nodes)
	}
	if len(c.Peers) == 0 {
		return fmt.Errorf("wire: empty peer table")
	}
	for id := range c.Peers {
		if id < 0 || id >= c.Nodes {
			return fmt.Errorf("wire: peer id %d out of range [0,%d)", id, c.Nodes)
		}
	}
	if _, ok := c.Peers[c.Self]; !ok && c.Conn == nil {
		return fmt.Errorf("wire: no listen address for self (%d) and no pre-bound socket", c.Self)
	}
	return nil
}

// Transport is a node.Transport over a UDP socket: one socket per
// daemon, a static peer table, and a single-segment broadcast domain —
// every peer is one hop away, and Flood sends one datagram per peer.
// This models the paper's single radio cell; multi-hop topologies come
// from running segments behind forwarders, not from this layer.
type Transport struct {
	cfg   TransportConfig
	clock *Clock
	conn  *net.UDPConn
	// addrs is the resolved peer table, indexed by node id (nil =
	// unknown peer).
	addrs   []*net.UDPAddr
	peerIDs []int // known peer ids, ascending, for deterministic floods

	// receivers is written before the clock starts and read only on the
	// kernel goroutine; only Self's entry is ever consulted.
	receivers []netsim.Receiver

	traffic *stats.Traffic
	// trace, when non-nil, emits a transit span for every traced frame
	// delivered here and re-parents the message's context onto it, so the
	// receiving handlers' spans chain through the wire hop — the same
	// contract as netsim.SetTraceCollector. Confined to the kernel
	// goroutine.
	trace *ctrace.Collector
	// activity counts this node's radio send/receive events. Confined to
	// the kernel goroutine (sends happen in handlers, receives in
	// injected deliveries).
	activity uint64
	sendSeq  uint64

	// chaos, when non-nil, adjudicates every reception (drop / delay /
	// duplicate) before delivery. Install before Run; consulted only on
	// the kernel goroutine.
	chaos *Chaos

	// Read-loop diagnostics (crossed by the reader goroutine).
	decodeErrs  atomic.Uint64
	misdelivers atomic.Uint64
	readErrs    atomic.Uint64

	// writeTo / readFrom are the socket seams, overridable in tests to
	// fault individual peers or feed the read loop synthetic errors. They
	// default to the socket's own methods.
	writeTo  func(b []byte, addr *net.UDPAddr) (int, error)
	readFrom func(b []byte) (int, *net.UDPAddr, error)

	closeOnce sync.Once
	closeErr  error
	readDone  chan struct{}
}

// Compile-time conformance with the engine-facing interface.
var _ node.Transport = (*Transport)(nil)

// NewTransport binds (or adopts) the socket and resolves the peer table.
// Call Run to start the read loop once the clock exists.
func NewTransport(cfg TransportConfig, clock *Clock, traffic *stats.Traffic) (*Transport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil || traffic == nil {
		return nil, fmt.Errorf("wire: nil clock or traffic")
	}
	t := &Transport{
		cfg:       cfg,
		clock:     clock,
		traffic:   traffic,
		addrs:     make([]*net.UDPAddr, cfg.Nodes),
		receivers: make([]netsim.Receiver, cfg.Nodes),
		readDone:  make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("wire: resolve peer %d (%q): %w", id, addr, err)
		}
		t.addrs[id] = ua
		t.peerIDs = append(t.peerIDs, id)
	}
	sort.Ints(t.peerIDs)
	if cfg.Conn != nil {
		t.conn = cfg.Conn
	} else {
		la, err := net.ResolveUDPAddr("udp", cfg.Peers[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("wire: resolve listen address: %w", err)
		}
		conn, err := net.ListenUDP("udp", la)
		if err != nil {
			return nil, fmt.Errorf("wire: listen: %w", err)
		}
		t.conn = conn
	}
	t.writeTo = t.conn.WriteToUDP
	t.readFrom = t.conn.ReadFromUDP
	return t, nil
}

// SetChaos installs the wire-level fault shim. Install before Run; nil
// leaves the transport clean.
func (t *Transport) SetChaos(c *Chaos) { t.chaos = c }

// SetTraceCollector installs the causal-trace collector. Install before
// Run; the collector is used only on the kernel goroutine.
func (t *Transport) SetTraceCollector(c *ctrace.Collector) { t.trace = c }

// Run starts the socket read loop. Call once, after the receivers are
// installed; Close terminates it.
func (t *Transport) Run() { go t.readLoop() }

// LocalAddr returns the socket's bound address.
func (t *Transport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the socket and waits for the read loop to exit.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		t.closeErr = t.conn.Close()
		<-t.readDone
	})
	return t.closeErr
}

// DecodeErrors returns how many datagrams failed frame decoding.
func (t *Transport) DecodeErrors() uint64 { return t.decodeErrs.Load() }

// ReadErrors returns how many transient socket read errors the read loop
// survived (e.g. ICMP port-unreachable surfaced from a crashed peer).
func (t *Transport) ReadErrors() uint64 { return t.readErrs.Load() }

// Misdelivers returns how many well-formed frames were addressed to a
// different node (a peer-table error) or echoed back from self.
func (t *Transport) Misdelivers() uint64 { return t.misdelivers.Load() }

// Len returns the cluster width.
func (t *Transport) Len() int { return t.cfg.Nodes }

// Kernel returns the clock's kernel.
func (t *Transport) Kernel() *sim.Kernel { return t.clock.k }

// SetReceiver installs nd's delivery callback. Only Self's receiver ever
// fires on this transport; the engine installs one per node regardless,
// which is harmless.
func (t *Transport) SetReceiver(nd int, r netsim.Receiver) error {
	if nd < 0 || nd >= t.cfg.Nodes {
		return fmt.Errorf("wire: receiver node %d out of range", nd)
	}
	t.receivers[nd] = r
	return nil
}

// Up reports whether nd is in the peer table. A static table has no
// liveness oracle; an unreachable-but-listed peer is discovered the way
// a real radio discovers it — by silence.
func (t *Transport) Up(nd int) bool {
	return nd >= 0 && nd < t.cfg.Nodes && t.addrs[nd] != nil
}

// Reachable reports whether both endpoints are in the peer table; on a
// single segment every listed peer is link-reachable.
func (t *Transport) Reachable(from, to int) bool { return t.Up(from) && t.Up(to) }

// Activity returns Self's radio activity counter (foreign nodes read 0:
// their activity happens in their own daemons).
func (t *Transport) Activity(nd int) uint64 {
	if nd == t.cfg.Self {
		return t.activity
	}
	return 0
}

// Unicast sends msg to exactly one peer. Sends must originate from Self:
// a daemon has no authority to speak as another node, and an engine that
// tries indicates an assembly bug (a periodic duty not gated to Self).
func (t *Transport) Unicast(from, to int, msg protocol.Message) error {
	if err := msg.Validate(); err != nil {
		return err
	}
	if from != t.cfg.Self {
		return fmt.Errorf("wire: unicast from %d, but this daemon is node %d", from, t.cfg.Self)
	}
	if !t.Up(to) {
		return fmt.Errorf("wire: unicast to unknown peer %d", to)
	}
	t.sendSeq++
	buf, err := protocol.MarshalFrame(protocol.Frame{
		From: from, To: to, Seq: t.sendSeq, Msg: msg,
	})
	if err != nil {
		return err
	}
	t.traffic.RecordOriginated(msg.Kind)
	t.traffic.RecordTx(msg.Kind, len(buf))
	t.activity++
	if err := t.send(buf, to); err != nil {
		t.traffic.RecordDropped(msg.Kind, stats.DropPeerDown)
		return fmt.Errorf("wire: unicast to %d: %w", to, err)
	}
	return nil
}

// send writes one datagram with a single bounded retry: UDP sends fail
// only for local/transient reasons (buffer pressure, ICMP-induced
// errors), so one immediate retry is the whole backoff budget — anything
// longer would block the kernel goroutine.
func (t *Transport) send(buf []byte, to int) error {
	_, err := t.writeTo(buf, t.addrs[to])
	if err == nil {
		return nil
	}
	if _, retry := t.writeTo(buf, t.addrs[to]); retry == nil {
		return nil
	}
	return err
}

// Flood broadcasts msg to every listed peer except the origin, in
// ascending id order — the single-segment equivalent of a TTL-bounded
// flood (every node is one hop away, so any ttl >= 1 covers the
// segment). The origin never receives its own flood, matching netsim.
func (t *Transport) Flood(origin, ttl int, msg protocol.Message) error {
	if err := msg.Validate(); err != nil {
		return err
	}
	if origin != t.cfg.Self {
		return fmt.Errorf("wire: flood from %d, but this daemon is node %d", origin, t.cfg.Self)
	}
	if ttl <= 0 {
		return fmt.Errorf("wire: flood ttl %d must be > 0", ttl)
	}
	t.sendSeq++
	buf, err := protocol.MarshalFrame(protocol.Frame{
		From: origin, TTL: ttl, Flood: true, Seq: t.sendSeq, Msg: msg,
	})
	if err != nil {
		return err
	}
	t.traffic.RecordOriginated(msg.Kind)
	// A failed peer must not censor the rest of the fan-out: keep going,
	// account each failure as a peer-down drop, and report success — the
	// flood reached everyone it could, which is all a broadcast promises.
	for _, id := range t.peerIDs {
		if id == origin {
			continue
		}
		t.traffic.RecordTx(msg.Kind, len(buf))
		t.activity++
		if err := t.send(buf, id); err != nil {
			t.traffic.RecordDropped(msg.Kind, stats.DropPeerDown)
		}
	}
	return nil
}

// readLoop decodes datagrams and injects deliveries onto the kernel
// goroutine. It exits only when the socket is closed: transient read
// errors — ICMP port-unreachable bounced back from a crashed peer is the
// classic — are counted and survived, because one dead neighbour must
// not deafen this daemon to the rest of the cluster.
func (t *Transport) readLoop() {
	defer close(t.readDone)
	buf := make([]byte, 65536)
	for {
		n, _, err := t.readFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // deliberate shutdown
			}
			t.readErrs.Add(1)
			// Brief pause so a persistent error condition (e.g. a broken
			// socket that is not reported as closed) cannot spin a core.
			time.Sleep(time.Millisecond)
			continue
		}
		f, err := protocol.UnmarshalFrame(buf[:n])
		if err != nil {
			t.decodeErrs.Add(1)
			// The frame has no decodable kind, so account it on the
			// kindless drop ledger (kernel goroutine owns the counters).
			t.clock.Inject(func(k *sim.Kernel) {
				t.traffic.RecordDroppedUnknown(stats.DropDecode)
			})
			continue
		}
		if f.From == t.cfg.Self || (!f.Flood && f.To != t.cfg.Self) {
			t.misdelivers.Add(1)
			continue
		}
		frame := f // capture a stable copy for the closure
		if !t.clock.Inject(func(k *sim.Kernel) { t.deliver(k, frame) }) {
			// Clock stopped: drain and discard until the socket closes.
			continue
		}
	}
}

// deliver runs on the kernel goroutine: adjudicate the reception against
// the chaos plan (if installed), then deliver now or on the scheduled
// delay. Reordering needs no machinery of its own — two frames drawing
// different jitters already swap on the kernel's event queue.
func (t *Transport) deliver(k *sim.Kernel, f protocol.Frame) {
	if t.chaos == nil {
		t.deliverNow(k, f)
		return
	}
	plan := t.chaos.Plan(k.Now(), f.From)
	if plan.Drop {
		t.traffic.RecordDropped(f.Msg.Kind, plan.Cause)
		return
	}
	if plan.Dup {
		k.After(plan.DupDelay, "wire.chaos.dup", func(k *sim.Kernel) { t.deliverNow(k, f) })
	}
	if plan.Delay > 0 {
		k.After(plan.Delay, "wire.chaos.delay", func(k *sim.Kernel) { t.deliverNow(k, f) })
		return
	}
	t.deliverNow(k, f)
}

// deliverNow accounts the reception and hands the message to Self's
// receiver with simulator-shaped metadata.
func (t *Transport) deliverNow(k *sim.Kernel, f protocol.Frame) {
	t.traffic.RecordDelivered(f.Msg.Kind)
	t.activity++
	r := t.receivers[t.cfg.Self]
	if r == nil {
		return
	}
	if t.trace != nil && f.Msg.Trace.TraceID != 0 {
		// Sender clocks are not comparable, so the hop span is an instant
		// at local receipt; its value is the causal stitch, not the flight
		// time.
		now := k.Now().Nanoseconds()
		f.Msg.Trace = t.trace.Emit(f.Msg.Trace, t.cfg.Self, ctrace.PhaseTransit, f.Msg.Kind.String(), now, now)
	}
	r(k, t.cfg.Self, f.Msg, netsim.Meta{
		Hops:    1,
		At:      k.Now(),
		SentAt:  k.Now(), // sender clocks are not comparable; flight time reads as 0
		Flood:   f.Flood,
		FloodID: f.Seq,
	})
}
