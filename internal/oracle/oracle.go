// Package oracle is the differential conformance harness: it runs any
// strategy (RPCC or a pushpull baseline) against a zero-latency
// omniscient reference model that tracks, per (node, item, sim-time),
// the set of versions a correct implementation may answer under each
// consistency level. Divergences — answers outside that set — are
// recorded with enough context to replay them from a JSONL trace
// (trace.go). The harness is driven two ways: a deterministic seeded
// message-level fuzzer (fuzz.go) that mutates delivery schedules and
// shrinks failures, and a mutation gate (mutants.go) that injects known
// protocol mutants and fails unless the oracle catches every one.
package oracle

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// Divergence kinds, ordered roughly by severity.
const (
	// DivTorn: the served copy failed its integrity check (wrong item or
	// value/version mismatch).
	DivTorn = "torn"
	// DivUncommitted: the served version was never committed at the
	// master, or was committed after the answer time.
	DivUncommitted = "uncommitted"
	// DivStale: the served version is older than the strategy's
	// staleness envelope for the query's consistency level allows.
	DivStale = "stale"
	// DivMonotone: a (host, item) pair observed a version older than one
	// it already observed, without an intervening crash.
	DivMonotone = "monotone"
	// DivOverreach: an invalidation flood was delivered beyond its
	// specified TTL radius.
	DivOverreach = "flood-overreach"
	// DivUnderreach: a node inside the specified TTL radius never heard
	// any invalidation (reported at Finish, only when CheckReach is set).
	DivUnderreach = "flood-underreach"
)

// Divergence is one observed violation of the reference model.
type Divergence struct {
	At     time.Duration `json:"at"`
	Node   int           `json:"node"`
	Item   data.ItemID   `json:"item"`
	Kind   string        `json:"kind"`
	Level  string        `json:"level,omitempty"`
	Served data.Version  `json:"served,omitempty"`
	MinOK  data.Version  `json:"min_ok,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s node=%d item=%d at=%v served=v%d min=v%d %s",
		d.Kind, d.Node, d.Item, d.At, d.Served, d.MinOK, d.Detail)
}

// Spec is the per-run contract the model checks against. Envelopes maps
// a consistency level to the strategy's staleness bound for answers at
// that level; a level absent from the map is bound only by the universal
// committed-value rule (weak consistency). Slack absorbs message flight
// and timer-stagger jitter; Inflate widens every envelope further and is
// set to the fuzzer's maximum injected delay so that delayed *fresh*
// evidence can never produce a false positive (a copy validated at
// generation time t_g and delivered at t_g+MaxDelay is still inside
// envelope+Inflate).
type Spec struct {
	Envelopes map[consistency.Level]time.Duration
	Slack     time.Duration
	Inflate   time.Duration
	// InvTTL is the invalidation flood radius the strategy is configured
	// with; deliveries of KindInvalidation with more hops are overreach.
	// Zero disables the overreach check.
	InvTTL int
	// CheckReach, when set, requires every node listed in ExpectReach to
	// hear at least one invalidation by Finish. Only sound for scenarios
	// without drop rules or crashes.
	CheckReach  bool
	ExpectReach []int
}

// Model is the omniscient reference. It sees every answered query (via
// the chassis answer observer) and every message delivery (via the
// netsim tracer) with zero latency, and checks each against Spec.
type Model struct {
	reg  *data.Registry
	spec Spec
	// bounds is spec's staleness contract in the shape the shared judge
	// takes. The simulator's faults are not scheduled adversity, so it
	// has no windows and no restart records.
	bounds LiveSpec
	wm     consistency.Watermarks
	// crashes counts each node's crashes: its monotone-reads epoch (a
	// crashed node loses its cache and may legitimately re-observe older
	// committed versions).
	crashes  map[int]int64
	invHeard map[int]bool
	divs     []Divergence
}

// NewModel builds a reference model over the registry's masters.
func NewModel(reg *data.Registry, spec Spec) (*Model, error) {
	if reg == nil {
		return nil, fmt.Errorf("oracle: nil registry")
	}
	if spec.Slack < 0 || spec.Inflate < 0 {
		return nil, fmt.Errorf("oracle: negative slack %v or inflate %v", spec.Slack, spec.Inflate)
	}
	return &Model{
		reg:      reg,
		spec:     spec,
		bounds:   LiveSpec{Envelopes: spec.Envelopes, Slack: spec.Slack, Inflate: spec.Inflate},
		crashes:  make(map[int]int64),
		invHeard: make(map[int]bool),
	}, nil
}

func (m *Model) diverge(d Divergence) { m.divs = append(m.divs, d) }

// ObserveAnswer checks one answered query against the registry's master
// (an item the registry does not know has no commits beyond version 0).
// Wire it with Chassis.SetAnswerObserver.
func (m *Model) ObserveAnswer(k *sim.Kernel, q *node.Query, served data.Copy) {
	h := noCommits
	if master, err := m.reg.Master(q.Item); err == nil {
		h = master
	}
	a := LiveAnswer{Node: q.Host, Item: q.Item, Level: q.Level, Served: served, At: k.Now()}
	m.divs = m.bounds.judge(m.divs, &m.wm, h, a, 0, 0, m.crashes[q.Host])
}

// ObserveDelivery checks one message delivery. Wire it with
// Network.SetTracer.
func (m *Model) ObserveDelivery(at time.Duration, nd int, msg protocol.Message, meta netsim.Meta) {
	if msg.Kind != protocol.KindInvalidation {
		return
	}
	m.invHeard[nd] = true
	if m.spec.InvTTL > 0 && meta.Hops > m.spec.InvTTL {
		m.diverge(Divergence{
			At:     at,
			Node:   nd,
			Item:   msg.Item,
			Kind:   DivOverreach,
			Served: msg.Version,
			Detail: fmt.Sprintf("hops=%d ttl=%d", meta.Hops, m.spec.InvTTL),
		})
	}
}

// OnCrash starts node nd's next monotone-reads epoch.
func (m *Model) OnCrash(nd int) { m.crashes[nd]++ }

// Finish runs end-of-horizon checks (flood underreach) and returns every
// divergence observed, in observation order.
func (m *Model) Finish() []Divergence {
	if m.spec.CheckReach {
		for _, nd := range m.spec.ExpectReach {
			if !m.invHeard[nd] {
				m.diverge(Divergence{
					Node:   nd,
					Kind:   DivUnderreach,
					Detail: fmt.Sprintf("node inside ttl=%d radius heard no invalidation", m.spec.InvTTL),
				})
			}
		}
	}
	return m.divs
}
