package telemetry

import "sort"

// defaultSpanCap bounds the span log. Spans past the cap are counted in
// rpcc_spans_dropped_total rather than silently lost; LevelSpans is meant
// for bounded diagnostic runs, not 5-hour sweeps.
const defaultSpanCap = 1 << 18

// QuerySpan is one query's lifecycle: issue → answer or failure. All
// times are simulated-clock nanoseconds so exports are deterministic.
type QuerySpan struct {
	Seq     uint64 `json:"seq"`
	Host    int    `json:"host"`
	Item    int    `json:"item"`
	Level   string `json:"level"`
	Route   string `json:"route,omitempty"` // how the answer was obtained (local, relay, poll, fetch, ...)
	Outcome string `json:"outcome"`         // "answered" | "failed"
	Reason  string `json:"reason,omitempty"`
	// Served is the delivered copy's version (answered spans).
	Served uint64 `json:"served,omitempty"`
	// StaleNs is the served copy's staleness at delivery; -1 when the
	// judging node had no commit ledger to date it (a wire daemon).
	StaleNs    int64  `json:"stale_ns"`
	Violation  string `json:"violation,omitempty"`
	IssuedNs   int64  `json:"issued_ns"`
	ResolvedNs int64  `json:"resolved_ns"`
}

// RoleSpan is one Fig 5 role transition with the election coefficient
// inputs at the moment it happened.
type RoleSpan struct {
	AtNs   int64   `json:"at_ns"`
	Node   int     `json:"node"`
	Item   int     `json:"item"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Reason string  `json:"reason"`
	CAR    float64 `json:"car"`
	CS     float64 `json:"cs"`
	CE     float64 `json:"ce"`
}

// WaveSpan aggregates one flood's fan-out, keyed by the network layer's
// Meta.FloodID: every delivery of one broadcast shares the id, so the
// span captures how far and how fast the wave spread.
type WaveSpan struct {
	FloodID    uint64 `json:"flood_id"`
	Kind       string `json:"kind"`
	Item       int    `json:"item"`
	Origin     int    `json:"origin"`
	Version    uint64 `json:"version"`
	FirstNs    int64  `json:"first_ns"`
	LastNs     int64  `json:"last_ns"`
	Deliveries int    `json:"deliveries"`
	MaxHops    int    `json:"max_hops"`
}

// FaultSpan is one injected fault-plane event: a partition splitting or
// healing, a crash/restart, or a relay assassination. Nodes lists the
// affected node ids (sorted); Item is -1 unless the fault targets one
// item's relay tier.
type FaultSpan struct {
	AtNs  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Nodes []int  `json:"nodes,omitempty"`
	Item  int    `json:"item"`
	Note  string `json:"note,omitempty"`
}

// SpanLog retains query, role and fault spans up to a shared cap,
// counting overflow instead of growing without bound.
type SpanLog struct {
	cap     int
	queries []QuerySpan
	roles   []RoleSpan
	faults  []FaultSpan
	dropped uint64
}

// NewSpanLog builds a span log holding at most capacity spans in total.
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = defaultSpanCap
	}
	return &SpanLog{cap: capacity}
}

func (l *SpanLog) size() int { return len(l.queries) + len(l.roles) + len(l.faults) }

// AddQuery appends a query span (or counts a drop at capacity).
func (l *SpanLog) AddQuery(s QuerySpan) {
	if l.size() >= l.cap {
		l.dropped++
		return
	}
	l.queries = append(l.queries, s)
}

// AddRole appends a role span (or counts a drop at capacity).
func (l *SpanLog) AddRole(s RoleSpan) {
	if l.size() >= l.cap {
		l.dropped++
		return
	}
	l.roles = append(l.roles, s)
}

// AddFault appends a fault span (or counts a drop at capacity).
func (l *SpanLog) AddFault(s FaultSpan) {
	if l.size() >= l.cap {
		l.dropped++
		return
	}
	l.faults = append(l.faults, s)
}

// Queries returns the retained query spans in record (simulation event)
// order.
func (l *SpanLog) Queries() []QuerySpan { return l.queries }

// Roles returns the retained role spans in record order.
func (l *SpanLog) Roles() []RoleSpan { return l.roles }

// Faults returns the retained fault spans in record order — injection
// order, so timestamps are monotone.
func (l *SpanLog) Faults() []FaultSpan { return l.faults }

// Dropped returns how many spans the cap discarded.
func (l *SpanLog) Dropped() uint64 { return l.dropped }

// sortedWaves returns the wave spans ordered by flood id — origination
// order, since the network numbers floods sequentially.
func (h *Hub) sortedWaves() []*WaveSpan {
	if h == nil || len(h.waves) == 0 {
		return nil
	}
	out := make([]*WaveSpan, 0, len(h.waves))
	for _, w := range h.waves {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FloodID < out[j].FloodID })
	return out
}
