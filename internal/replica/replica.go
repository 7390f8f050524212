// Package replica implements the paper's third future-work direction
// (§6): consistency for replicas, where — unlike the cache model in which
// only a data item's source host may write — any peer holding a replica
// can modify it.
//
// The design is the classic optimistic-replication recipe adapted to the
// MANET substrate the rest of the repository provides:
//
//   - Writes are tagged with a Lamport clock and the writer id; the pair
//     totally orders all writes, and replicas merge by
//     last-writer-wins over that order.
//   - A write is propagated eagerly with a TTL-scoped flood (like RPCC's
//     INVALIDATION tier), reaching every currently connected holder.
//   - A periodic anti-entropy process repairs what the flood missed
//     (partitioned or disconnected holders): each holder sends a digest
//     of its newest write to a random fellow holder; whichever side is
//     behind receives the newer value.
//
// In a connected network with quiescent writers, all holders converge to
// the maximal write — the property test in replica_test.go checks exactly
// that, under churn and partitions healed before the deadline.
package replica

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// Value is one replica's state: the payload plus its ordering tag.
type Value struct {
	Data   string
	Clock  uint64 // Lamport clock of the write
	Writer int    // tie-break between concurrent writes
}

// Newer reports whether v supersedes o in the (Clock, Writer) order.
func (v Value) Newer(o Value) bool {
	if v.Clock != o.Clock {
		return v.Clock > o.Clock
	}
	return v.Writer > o.Writer
}

// Config parameterises the replica manager.
type Config struct {
	// PushTTL is the flood scope of eager write propagation.
	PushTTL int
	// AntiEntropyEvery is the period of the digest exchange.
	AntiEntropyEvery time.Duration
}

// DefaultConfig returns network-wide pushes with 30-second anti-entropy.
func DefaultConfig() Config {
	return Config{PushTTL: 8, AntiEntropyEvery: 30 * time.Second}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PushTTL <= 0 {
		return fmt.Errorf("replica: non-positive push TTL %d", c.PushTTL)
	}
	if c.AntiEntropyEvery <= 0 {
		return fmt.Errorf("replica: non-positive anti-entropy period %v", c.AntiEntropyEvery)
	}
	return nil
}

// Manager runs the replica protocol over a network. It installs itself as
// every node's receiver, so it owns the network — use a dedicated netsim
// instance (the cache-consistency strategies and the replica tier model
// different future systems and are not meant to share one receiver).
type Manager struct {
	cfg     Config
	net     *netsim.Network
	rng     *rand.Rand
	holders map[int][]int   // replica id -> holder nodes
	values  []map[int]Value // per node: replica id -> local value
	clocks  []uint64        // per node: Lamport clock
	started bool
	writes  uint64
	merges  uint64
	syncs   uint64
}

// NewManager builds a manager over net.
func NewManager(cfg Config, net *netsim.Network) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("replica: nil network")
	}
	m := &Manager{
		cfg:     cfg,
		net:     net,
		holders: make(map[int][]int),
		values:  make([]map[int]Value, net.Len()),
		clocks:  make([]uint64, net.Len()),
	}
	for i := range m.values {
		m.values[i] = make(map[int]Value)
	}
	return m, nil
}

// Register creates replica id on the given holder nodes with an initial
// empty value. Call before Start.
func (m *Manager) Register(id int, holders []int) error {
	if m.started {
		return fmt.Errorf("replica: register after start")
	}
	if len(holders) < 2 {
		return fmt.Errorf("replica: replica %d needs at least 2 holders", id)
	}
	if _, dup := m.holders[id]; dup {
		return fmt.Errorf("replica: replica %d already registered", id)
	}
	seen := make(map[int]bool, len(holders))
	for _, h := range holders {
		if h < 0 || h >= m.net.Len() {
			return fmt.Errorf("replica: holder %d out of range", h)
		}
		if seen[h] {
			return fmt.Errorf("replica: duplicate holder %d", h)
		}
		seen[h] = true
		m.values[h][id] = Value{}
	}
	cp := make([]int, len(holders))
	copy(cp, holders)
	m.holders[id] = cp
	return nil
}

// Start installs receivers and schedules anti-entropy. Call once, after
// all Register calls.
func (m *Manager) Start(k *sim.Kernel) error {
	if m.started {
		return fmt.Errorf("replica: already started")
	}
	m.started = true
	m.rng = k.Stream("replica")
	for nd := 0; nd < m.net.Len(); nd++ {
		nd := nd
		if err := m.net.SetReceiver(nd, func(kk *sim.Kernel, n int, msg protocol.Message, _ netsim.Meta) {
			m.dispatch(kk, n, msg)
		}); err != nil {
			return err
		}
	}
	// Walk replica ids in sorted order: the stagger stream is consumed once
	// per holder, so map-iteration order would otherwise leak into the
	// schedule and break seed-determinism.
	stagger := k.Stream("replica.stagger")
	ids := make([]int, 0, len(m.holders))
	for id := range m.holders {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, h := range m.holders[id] {
			id, h := id, h
			k.After(time.Duration(stagger.Int63n(int64(m.cfg.AntiEntropyEvery))), "replica.ae", func(kk *sim.Kernel) {
				m.antiEntropyTick(kk, h, id)
			})
		}
	}
	return nil
}

// Write applies a local write at node and propagates it. Unlike the cache
// model, ANY holder may write.
func (m *Manager) Write(k *sim.Kernel, node, id int, payload string) error {
	if !m.started {
		return fmt.Errorf("replica: write before start")
	}
	if !m.holds(node, id) {
		return fmt.Errorf("replica: node %d does not hold replica %d", node, id)
	}
	m.clocks[node]++
	v := Value{Data: payload, Clock: m.clocks[node], Writer: node}
	m.apply(node, id, v)
	m.writes++
	msg := protocol.Message{
		Kind:   protocol.KindReplicaWrite,
		Item:   data.ItemID(id),
		Origin: node,
		Seq:    v.Clock,
		Copy:   data.Copy{Value: v.Data},
	}
	return m.net.Flood(node, m.cfg.PushTTL, msg)
}

// Read returns node's current value of replica id.
func (m *Manager) Read(node, id int) (Value, error) {
	if !m.holds(node, id) {
		return Value{}, fmt.Errorf("replica: node %d does not hold replica %d", node, id)
	}
	return m.values[node][id], nil
}

func (m *Manager) holds(node, id int) bool {
	if node < 0 || node >= len(m.values) {
		return false
	}
	_, ok := m.values[node][id]
	return ok
}

// apply merges v into node's state (last-writer-wins) and advances the
// node's Lamport clock past the observed write.
func (m *Manager) apply(node, id int, v Value) {
	if m.clocks[node] < v.Clock {
		m.clocks[node] = v.Clock
	}
	cur := m.values[node][id]
	if v.Newer(cur) {
		m.values[node][id] = v
		m.merges++
	}
}

func (m *Manager) dispatch(k *sim.Kernel, nd int, msg protocol.Message) {
	id := int(msg.Item)
	switch msg.Kind {
	case protocol.KindReplicaWrite, protocol.KindReplicaSync:
		if !m.holds(nd, id) {
			return // the flood also reaches non-holders; they ignore it
		}
		m.apply(nd, id, Value{Data: msg.Copy.Value, Clock: msg.Seq, Writer: msg.Origin})
		if msg.Kind == protocol.KindReplicaSync {
			m.syncs++
		}
	case protocol.KindReplicaDigest:
		m.onDigest(k, nd, msg)
	}
}

// antiEntropyTick sends node's digest for replica id to a random fellow
// holder and reschedules.
func (m *Manager) antiEntropyTick(k *sim.Kernel, node, id int) {
	defer k.After(m.cfg.AntiEntropyEvery, "replica.ae", func(kk *sim.Kernel) {
		m.antiEntropyTick(kk, node, id)
	})
	holders := m.holders[id]
	if len(holders) < 2 {
		return
	}
	peer := node
	for peer == node {
		peer = holders[m.rng.Intn(len(holders))]
	}
	cur := m.values[node][id]
	digest := protocol.Message{
		Kind:   protocol.KindReplicaDigest,
		Item:   data.ItemID(id),
		Origin: node,
		Seq:    cur.Clock,
		// Version doubles as the writer tie-break in the digest.
		Version: data.Version(cur.Writer),
	}
	_ = m.net.Unicast(node, peer, digest)
}

// onDigest compares the sender's tag with ours: if we are newer we push
// our value back; if we are older we send our own digest, prompting the
// newer side to push. Equal tags terminate the exchange.
func (m *Manager) onDigest(k *sim.Kernel, nd int, msg protocol.Message) {
	id := int(msg.Item)
	if !m.holds(nd, id) {
		return
	}
	theirs := Value{Clock: msg.Seq, Writer: int(msg.Version)}
	mine := m.values[nd][id]
	switch {
	case mine.Newer(theirs):
		sync := protocol.Message{
			Kind:   protocol.KindReplicaSync,
			Item:   msg.Item,
			Origin: mine.Writer,
			Seq:    mine.Clock,
			Copy:   data.Copy{Value: mine.Data},
		}
		_ = m.net.Unicast(nd, msg.Origin, sync)
	case theirs.Newer(mine):
		reply := protocol.Message{
			Kind:    protocol.KindReplicaDigest,
			Item:    msg.Item,
			Origin:  nd,
			Seq:     mine.Clock,
			Version: data.Version(mine.Writer),
		}
		_ = m.net.Unicast(nd, msg.Origin, reply)
	}
}

// Stats returns lifetime counters: local writes, merges applied (local or
// remote values that advanced a holder), and anti-entropy repairs.
func (m *Manager) Stats() (writes, merges, syncs uint64) {
	return m.writes, m.merges, m.syncs
}

// Converged reports whether every holder of id sees the same value, and
// returns that value when they do.
func (m *Manager) Converged(id int) (Value, bool) {
	holders, ok := m.holders[id]
	if !ok || len(holders) == 0 {
		return Value{}, false
	}
	first := m.values[holders[0]][id]
	for _, h := range holders[1:] {
		if m.values[h][id] != first {
			return Value{}, false
		}
	}
	return first, true
}
