// Package telemetry is the metrics half of the observability plane: a
// zero-dependency, simulated-time-aware registry (counters, gauges,
// fixed-bucket histograms) behind a Hub of pre-built handles. Per-event
// records — query lifecycles, role transitions, faults, flood waves —
// live on the causal trace (internal/telemetry/trace), not here.
//
// The hot-path recording methods are allocation-free, every fixed handle
// is pre-registered in NewHub, and nothing observable about a simulation
// changes (no RNG draws, no events), so seeded runs stay byte-identical
// with telemetry on.
//
// Determinism invariants: exported values contain simulated time only
// (never wall-clock) and every iteration over registered metrics is
// sorted — so two runs with the same seed export identical bytes.
package telemetry

import (
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/stats"
)

// Level selects whether NewHub builds a hub at all.
type Level int

const (
	// LevelOff records nothing: NewHub returns the nil hub.
	LevelOff Level = iota
	// LevelMetrics keeps the aggregate counters and histograms.
	LevelMetrics
)

// Relay-membership events, as seen by the source host's relay table.
const (
	MembershipApply      = "apply"       // APPLY registered a candidate
	MembershipApplyAck   = "apply-ack"   // APPLY_ACK granted promotion
	MembershipCancel     = "cancel"      // CANCEL deregistered a relay
	MembershipPrune      = "prune"       // MAC-layer discovery dropped an unreachable relay
	MembershipReRegister = "re-register" // GET_NEW re-registered a pruned relay
)

// Poll stages (mirroring core.Engine's escalation ladder).
const (
	PollDirect   = "direct"
	PollRing     = "ring"
	PollFallback = "fallback"
)

// Repair kinds (the §4.5 retry machinery being counted).
const (
	RepairGetNew = "get-new"
	RepairApply  = "apply"
)

// Fault-event kinds emitted by the fault plane.
const (
	FaultPartitionSplit = "partition-split"
	FaultPartitionHeal  = "partition-heal"
	FaultCrash          = "crash"
	FaultRestart        = "restart"
	FaultAssassination  = "assassination"
)

// nLevels sizes the per-consistency-level instrument arrays; levels are
// 1-based (consistency.LevelStrong..LevelWeak), slot 0 stays nil.
const nLevels = int(consistency.LevelWeak) + 1

// Hub is one simulation run's telemetry: the registry plus pre-built
// handles for every hot-path instrument. Like the rest of the per-run
// state it is confined to the single-threaded simulation loop. A nil
// *Hub is valid and inert — every method no-ops — so call sites do not
// branch on whether telemetry is wired.
type Hub struct {
	reg *Registry

	// Delivery plane (fed by the netsim Tracer hook).
	delivLatency [protocol.NumKinds]*Histogram
	delivHops    [protocol.NumKinds]*Histogram

	// Query lifecycle, per consistency level.
	issued       [nLevels]*Counter
	answered     [nLevels]*Counter
	failed       [nLevels]*Counter
	queryLatency [nLevels]*Histogram
	staleness    [nLevels]*Histogram
	// failReasons and violations memoise the per-reason failure and
	// per-class audit-violation counters, registered on first use
	// (registry lookups build a label signature per call).
	failReasons map[string]*Counter
	violations  map[string]*Counter

	// RPCC protocol decisions.
	pollStage  map[string]*Counter
	forgets    *Counter
	membership map[string]*Counter
	coeff      [3]*Histogram // CAR, CS, CE
	// roleMoves memoises the per-(from, to, reason) transition counters,
	// registered on first use like failReasons.
	roleMoves map[roleMove]*Counter

	// §4.5 repair retries and fault-plane events.
	repairAttempts map[string]*Counter
	repairGiveUps  map[string]*Counter

	simSeconds *Gauge

	// traffic is folded into the snapshot at Finish.
	traffic *stats.Traffic
}

// roleMove keys one labelled rpcc_role_transitions_total series.
type roleMove struct{ from, to, reason string }

// NewHub builds a hub at the given level (nil for LevelOff: callers can
// treat "off" as "no hub at all").
func NewHub(level Level) *Hub {
	if level == LevelOff {
		return nil
	}
	h := &Hub{
		reg:            NewRegistry(),
		failReasons:    make(map[string]*Counter),
		violations:     make(map[string]*Counter),
		roleMoves:      make(map[roleMove]*Counter),
		pollStage:      make(map[string]*Counter, 3),
		membership:     make(map[string]*Counter, 5),
		repairAttempts: make(map[string]*Counter, 2),
		repairGiveUps:  make(map[string]*Counter, 2),
	}
	for k := 1; k < protocol.NumKinds; k++ {
		kind := Label{"kind", protocol.Kind(k).String()}
		h.delivLatency[k] = h.reg.Histogram("rpcc_delivery_latency_seconds",
			"Origination-to-delivery latency per message kind.", timeBuckets, kind)
		h.delivHops[k] = h.reg.Histogram("rpcc_delivery_hops",
			"Link-level hops traversed per delivered message.", hopBuckets, kind)
	}
	for l := consistency.LevelStrong; l <= consistency.LevelWeak; l++ {
		lv := Label{"level", l.String()}
		h.issued[l] = h.reg.Counter("rpcc_queries_issued_total", "Queries issued.", lv)
		h.answered[l] = h.reg.Counter("rpcc_queries_resolved_total", "Queries resolved by outcome.",
			lv, Label{"outcome", "answered"})
		h.failed[l] = h.reg.Counter("rpcc_queries_resolved_total", "Queries resolved by outcome.",
			lv, Label{"outcome", "failed"})
		h.queryLatency[l] = h.reg.Histogram("rpcc_query_latency_seconds",
			"Issue-to-answer latency per consistency level.", timeBuckets, lv)
		h.staleness[l] = h.reg.Histogram("rpcc_staleness_seconds",
			"Staleness of the served copy at delivery, per consistency level.", timeBuckets, lv)
	}
	for _, s := range []string{PollDirect, PollRing, PollFallback} {
		h.pollStage[s] = h.reg.Counter("rpcc_polls_total", "Validation polls sent per stage.",
			Label{"stage", s})
	}
	h.forgets = h.reg.Counter("rpcc_relay_forgets_total",
		"Learned relays forgotten after going quiet.")
	for _, r := range []string{RepairGetNew, RepairApply} {
		h.repairAttempts[r] = h.reg.Counter("rpcc_repair_attempts_total",
			"GET_NEW/APPLY repair sends, including backoff retries.", Label{"kind", r})
		h.repairGiveUps[r] = h.reg.Counter("rpcc_repair_giveups_total",
			"Repairs abandoned after MaxRepairAttempts unanswered sends.", Label{"kind", r})
	}
	for _, ev := range []string{MembershipApply, MembershipApplyAck, MembershipCancel, MembershipPrune, MembershipReRegister} {
		h.membership[ev] = h.reg.Counter("rpcc_relay_membership_total",
			"Relay-table membership events at source hosts.", Label{"event", ev})
	}
	for i, c := range []string{"car", "cs", "ce"} {
		h.coeff[i] = h.reg.Histogram("rpcc_coeff_value",
			"Election coefficient values observed at coefficient ticks.", ratioBuckets,
			Label{"coeff", c})
	}
	h.simSeconds = h.reg.Gauge("rpcc_sim_seconds", "Simulated time covered by this snapshot.")
	return h
}

// Counter returns a nil-safe counter handle: on a nil hub it returns nil,
// which every Counter method tolerates. The intended pattern is one call
// per instrument at strategy Start, not per event.
func (h *Hub) Counter(name, help string, labels ...Label) *Counter {
	if h == nil {
		return nil
	}
	return h.reg.Counter(name, help, labels...)
}

// Tracer adapts the hub to the network layer's delivery hook, recording
// per-kind delivery latency and hop histograms. Returns nil on a nil hub
// so netsim keeps its zero-cost no-tracer path.
func (h *Hub) Tracer() netsim.Tracer {
	if h == nil {
		return nil
	}
	return func(at time.Duration, node int, msg protocol.Message, meta netsim.Meta) {
		k := msg.Kind
		if !k.Valid() {
			return
		}
		h.delivLatency[k].ObserveDuration(meta.At - meta.SentAt)
		h.delivHops[k].Observe(float64(meta.Hops))
	}
}

// QueryIssued counts one issued query.
func (h *Hub) QueryIssued(level consistency.Level) {
	if h == nil || !level.Valid() {
		return
	}
	h.issued[level].Inc()
}

// QueryAnswered records an answered query's latency, the served copy's
// staleness at delivery (no sample when it is consistency.Unknown), and
// the audit outcome.
func (h *Hub) QueryAnswered(level consistency.Level, latency, stale time.Duration, violation string) {
	if h == nil || !level.Valid() {
		return
	}
	h.answered[level].Inc()
	h.queryLatency[level].ObserveDuration(latency)
	if stale != consistency.Unknown {
		h.staleness[level].ObserveDuration(stale)
	}
	if violation != "" && violation != "none" {
		c, ok := h.violations[violation]
		if !ok {
			c = h.reg.Counter("rpcc_audit_violations_total", "Answers violating their consistency level.",
				Label{"class", violation})
			h.violations[violation] = c
		}
		c.Inc()
	}
}

// QueryFailed records a failed query and its reason.
func (h *Hub) QueryFailed(level consistency.Level, reason string) {
	if h == nil || !level.Valid() {
		return
	}
	h.failed[level].Inc()
	c, ok := h.failReasons[reason]
	if !ok {
		c = h.reg.Counter("rpcc_query_failures_total", "Failed queries by reason.",
			Label{"reason", reason})
		h.failReasons[reason] = c
	}
	c.Inc()
}

// RoleTransition counts one Fig 5 role transition.
func (h *Hub) RoleTransition(from, to, reason string) {
	if h == nil {
		return
	}
	key := roleMove{from, to, reason}
	c, ok := h.roleMoves[key]
	if !ok {
		c = h.reg.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
			Label{"from", from}, Label{"to", to}, Label{"reason", reason})
		h.roleMoves[key] = c
	}
	c.Inc()
}

// RelayMembership counts one relay-table event at a source host.
func (h *Hub) RelayMembership(event string) {
	if h == nil {
		return
	}
	if c, ok := h.membership[event]; ok {
		c.Inc()
		return
	}
	h.reg.Counter("rpcc_relay_membership_total",
		"Relay-table membership events at source hosts.", Label{"event", event}).Inc()
}

// PollStage counts one poll send at the given escalation stage.
func (h *Hub) PollStage(stage string) {
	if h == nil {
		return
	}
	if c, ok := h.pollStage[stage]; ok {
		c.Inc()
	}
}

// RelayForget counts one learned-relay forget.
func (h *Hub) RelayForget() {
	if h != nil {
		h.forgets.Inc()
	}
}

// RepairAttempt counts one GET_NEW or APPLY send (first send or retry).
func (h *Hub) RepairAttempt(kind string) {
	if h == nil {
		return
	}
	if c, ok := h.repairAttempts[kind]; ok {
		c.Inc()
	}
}

// RepairGiveUp counts one repair abandoned at the attempt bound.
func (h *Hub) RepairGiveUp(kind string) {
	if h == nil {
		return
	}
	if c, ok := h.repairGiveUps[kind]; ok {
		c.Inc()
	}
}

// FaultEvent counts one injected fault (a handful per campaign, so the
// registry lookup per call is not worth memoising).
func (h *Hub) FaultEvent(kind string) {
	if h == nil {
		return
	}
	h.reg.Counter("rpcc_fault_events_total", "Injected fault-plane events.",
		Label{"kind", kind}).Inc()
}

// Coeff observes one node's election coefficients at a coefficient tick.
func (h *Hub) Coeff(car, cs, ce float64) {
	if h == nil {
		return
	}
	h.coeff[0].Observe(car)
	h.coeff[1].Observe(cs)
	h.coeff[2].Observe(ce)
}

// AttachTraffic registers the run's traffic ledger to be folded into the
// snapshot at Finish.
func (h *Hub) AttachTraffic(t *stats.Traffic) {
	if h != nil {
		h.traffic = t
	}
}

// Finish stamps the simulated end time and folds the attached traffic
// ledger into the registry. Call once, after the kernel stops.
func (h *Hub) Finish(at time.Duration) {
	if h == nil {
		return
	}
	h.simSeconds.Set(at.Seconds())
	if h.traffic != nil {
		for k := 1; k < protocol.NumKinds; k++ {
			kind := protocol.Kind(k)
			lb := Label{"kind", kind.String()}
			if v := h.traffic.Tx(kind); v > 0 {
				h.reg.Counter("rpcc_tx_total", "Link-level transmissions.", lb).Add(v)
			}
			if v := h.traffic.Originated(kind); v > 0 {
				h.reg.Counter("rpcc_originated_total", "Messages entering the network.", lb).Add(v)
			}
			if v := h.traffic.Delivered(kind); v > 0 {
				h.reg.Counter("rpcc_delivered_total", "Messages reaching a handler.", lb).Add(v)
			}
			for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
				if v := h.traffic.DroppedByCause(kind, c); v > 0 {
					h.reg.Counter("rpcc_dropped_total", "Messages abandoned in flight, by cause.",
						lb, Label{"cause", c.String()}).Add(v)
				}
			}
		}
		// Kindless drops (undecodable datagrams on a wire transport) get
		// their own kind value: "unknown" is honest where any real kind
		// would be a guess.
		for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
			if v := h.traffic.DroppedUnknown(c); v > 0 {
				h.reg.Counter("rpcc_dropped_total", "Messages abandoned in flight, by cause.",
					Label{"kind", "unknown"}, Label{"cause", c.String()}).Add(v)
			}
		}
		h.reg.Counter("rpcc_tx_bytes_total", "Bytes transmitted.").Add(h.traffic.TotalBytes())
		// Invalid-kind records are surfaced explicitly (they indicate an
		// accounting bug upstream), never silently folded into a real kind.
		h.reg.Counter("rpcc_invalid_kind_total",
			"Traffic records carrying an out-of-range protocol kind.").Add(h.traffic.Invalid())
	}
}
