// Package telemetry is the observability plane of the simulator: a
// zero-dependency, simulated-time-aware metrics registry (counters,
// gauges, fixed-bucket histograms) plus an opt-in span model for query
// lifecycles, relay-membership transitions, and invalidation waves.
//
// Two levels exist. LevelMetrics (the default in experiment runs) keeps
// only aggregate instruments — the hot-path recording methods are
// allocation-free, every handle is pre-registered in NewHub, and nothing
// observable about a simulation changes (no RNG draws, no events), so
// seeded runs stay byte-identical with telemetry on. LevelSpans
// additionally retains per-query, per-transition and per-flood-wave
// records for the JSONL export.
//
// Determinism invariants: exported values contain simulated time only
// (never wall-clock), every iteration over registered metrics is sorted,
// and spans are appended in simulation event order — so two runs with
// the same seed export identical bytes.
package telemetry

import (
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/stats"
)

// Level selects how much the hub records.
type Level int

const (
	// LevelOff records nothing; every hub method is a no-op.
	LevelOff Level = iota
	// LevelMetrics (the default) keeps aggregate counters/histograms only.
	LevelMetrics
	// LevelSpans additionally retains per-query/-transition/-wave records.
	LevelSpans
)

// String names the level for flags and reports.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelMetrics:
		return "metrics"
	case LevelSpans:
		return "spans"
	default:
		return "Level(?)"
	}
}

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
	level Level
	reg   *Registry

	// Delivery plane (fed by the netsim Tracer hook).
	delivLatency [protocol.NumKinds]*Histogram
	delivHops    [protocol.NumKinds]*Histogram

	// Query lifecycle, per consistency level.
	issued       [nLevels]*Counter
	answered     [nLevels]*Counter
	failed       [nLevels]*Counter
	queryLatency [nLevels]*Histogram
	staleness    [nLevels]*Histogram
	// failReasons memoises the per-reason failure counters, registered on
	// first use (registry lookups build a label signature per call).
	failReasons map[string]*Counter

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

	// Span plane (LevelSpans only).
	spans *SpanLog
	waves map[uint64]*WaveSpan

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
		level:          level,
		reg:            NewRegistry(),
		failReasons:    make(map[string]*Counter),
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
	if level >= LevelSpans {
		h.spans = NewSpanLog(defaultSpanCap)
		h.waves = make(map[uint64]*WaveSpan)
	}
	return h
}

// Level returns the hub's recording level (LevelOff on nil).
func (h *Hub) Level() Level {
	if h == nil {
		return LevelOff
	}
	return h.level
}

// Registry exposes the underlying registry so strategies can register
// their own instruments (cache the returned handles; registration is not
// hot-path-free). Nil on a nil hub — Counter/Gauge/Histogram handles from
// a nil registry cannot be obtained, so callers guard with Level().
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
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
// per-kind delivery latency and hop histograms (and, at LevelSpans,
// folding flood deliveries into per-FloodID wave spans). Returns nil on a
// nil hub so netsim keeps its zero-cost no-tracer path.
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
		if h.waves != nil && meta.Flood && meta.FloodID != 0 {
			w, ok := h.waves[meta.FloodID]
			if !ok {
				w = &WaveSpan{
					FloodID: meta.FloodID,
					Kind:    k.String(),
					Item:    int(msg.Item),
					Origin:  msg.Origin,
					Version: uint64(msg.Version),
					FirstNs: int64(at),
				}
				h.waves[meta.FloodID] = w
			}
			w.LastNs = int64(at)
			w.Deliveries++
			if meta.Hops > w.MaxHops {
				w.MaxHops = meta.Hops
			}
		}
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
		h.reg.Counter("rpcc_audit_violations_total", "Answers violating their consistency level.",
			Label{"class", violation}).Inc()
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

// QuerySpanRecord retains one query's lifecycle record (LevelSpans only).
func (h *Hub) QuerySpanRecord(s QuerySpan) {
	if h == nil || h.spans == nil {
		return
	}
	h.spans.AddQuery(s)
}

// RoleTransition counts one Fig 5 role transition and, at LevelSpans,
// retains the transition with the election coefficient inputs that drove
// it.
func (h *Hub) RoleTransition(at time.Duration, node, item int, from, to, reason string, car, cs, ce float64) {
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
	if h.spans != nil {
		h.spans.AddRole(RoleSpan{
			AtNs: int64(at), Node: node, Item: item,
			From: from, To: to, Reason: reason,
			CAR: car, CS: cs, CE: ce,
		})
	}
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

// FaultEvent counts one injected fault and, at LevelSpans, retains it as
// a fault span. nodes is retained as given (callers pass sorted slices);
// item is -1 when the fault is not item-scoped.
func (h *Hub) FaultEvent(at time.Duration, kind string, nodes []int, item int, note string) {
	if h == nil {
		return
	}
	h.reg.Counter("rpcc_fault_events_total", "Injected fault-plane events.",
		Label{"kind", kind}).Inc()
	if h.spans != nil {
		h.spans.AddFault(FaultSpan{
			AtNs: int64(at), Kind: kind, Nodes: append([]int(nil), nodes...),
			Item: item, Note: note,
		})
	}
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
// ledger, wave aggregates and span-drop accounting into
// the registry. Call once, after the kernel stops.
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
	for _, w := range h.sortedWaves() {
		h.reg.Counter("rpcc_waves_total", "Flood waves observed, per kind.",
			Label{"kind", w.Kind}).Inc()
	}
	if h.spans != nil {
		h.reg.Counter("rpcc_spans_dropped_total",
			"Spans discarded after the span log filled.").Add(h.spans.Dropped())
	}
}
