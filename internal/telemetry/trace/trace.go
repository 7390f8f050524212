// Package trace is the causal tracing plane: it turns each end-to-end
// protocol operation (a query, an update push, an invalidation wave, a
// repair) into a DAG of spans that crosses nodes, kernel shards and — on
// the wire — processes. The (TraceID, SpanID, ParentSpanID) triple rides
// protocol.Message.Trace through every send, so a span recorded at the
// receiver can name the sender-side span that caused it.
//
// The plane is built to be invisible when off: every method is nil-safe
// (a nil *Collector no-ops), instrumentation sites guard with a single
// pointer/zero check, and the context contributes zero bytes to
// Message.Size(), so a traced run's simulated timing is identical to an
// untraced one.
//
// Determinism contract: span and trace ids are counters (the region id
// in the high bits keeps them unique across regions and daemons), spans
// are recorded in call order, and Export/Merge order by
// (StartNs, Region, Seq) — so a same-seed run reproduces the trace file
// byte for byte.
//
// A Collector is confined to its kernel's goroutine, exactly like the
// simulation state it observes; per-region collectors are merged after
// their kernels stop.
package trace

import (
	"sort"

	"github.com/manetlab/rpcc/internal/protocol"
)

// Span phases: where critical-path time is attributed.
const (
	// PhaseQuery is the root span of a query lifecycle (Begin→Answer/Fail);
	// its name records the answer route.
	PhaseQuery = "query"
	// PhaseTransit is one network delivery: [sent, delivered] of a single
	// unicast, forwarded hop chain, or flood arm.
	PhaseTransit = "transit"
	// PhasePoll is one stage of the poll escalation ladder
	// (direct → ring → fallback).
	PhasePoll = "poll"
	// PhaseRelayQueue is the time a poll waited in a relay's pending
	// queue for fresh content.
	PhaseRelayQueue = "relay-queue"
	// PhaseServe is authority-side answer construction (poll ack, data
	// reply).
	PhaseServe = "serve"
	// PhaseFetch is the cooperative-caching miss path (expanding-ring
	// search or direct owner fetch).
	PhaseFetch = "fetch"
	// PhaseRepair is a GET_NEW/SEND_NEW round including its backoff.
	PhaseRepair = "repair"
	// PhaseInvalidate is an invalidation wave rooted at the source host.
	PhaseInvalidate = "invalidate"
	// PhaseUpdate is an eager UPDATE push rooted at the source host.
	PhaseUpdate = "update"
	// PhaseRole is one Fig 5 role transition: an instantaneous parentless
	// span at the node that moved, named "from>to:reason".
	PhaseRole = "role"
	// PhaseFault is one injected fault-plane event: an instantaneous
	// parentless span named after the fault kind, with one instantaneous
	// child per node when the fault names several.
	PhaseFault = "fault"
)

// Phases is the closed phase vocabulary, in declaration order.
var Phases = []string{
	PhaseQuery, PhaseTransit, PhasePoll, PhaseRelayQueue, PhaseServe,
	PhaseFetch, PhaseRepair, PhaseInvalidate, PhaseUpdate, PhaseRole, PhaseFault,
}

// regionShift positions the region id in the high bits of every span id,
// keeping ids from different regions (sim shards, live daemons) disjoint
// without coordination. 2^40 spans per region, 2^23 regions.
const regionShift = 40

// Span is one node-local interval attributed to a trace. EndNs < StartNs
// never happens; EndNs == StartNs marks an instantaneous event (e.g. a
// local cache hit). Seq is the region-local emission index, the final
// determinism tiebreak.
type Span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Region  int    `json:"region"`
	Node    int    `json:"node"`
	Phase   string `json:"phase"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Seq     uint64 `json:"seq"`
	// Annot is set on resolved query roots and on role and fault roots
	// only; every other span leaves it nil and off the JSON line.
	Annot *Annot `json:"annot,omitempty"`
}

// Annot is what a root says beyond its interval. On a query root: the
// item asked for and at which level and, once answered, the version
// served, its staleness at delivery (-1 when the judging node has no
// commit ledger to date it — a wire daemon) and the audit verdict
// ("none" for a conforming answer; empty on a failed root). On a role
// root: the item and the election coefficients that drove the
// transition. On a fault root: the item whose relay tier was targeted,
// -1 when the fault is not item-scoped.
type Annot struct {
	Item    int     `json:"item"`
	Level   string  `json:"level,omitempty"`
	Served  uint64  `json:"served,omitempty"`
	StaleNs int64   `json:"stale_ns,omitempty"`
	Verdict string  `json:"verdict,omitempty"`
	CAR     float64 `json:"car,omitempty"`
	CS      float64 `json:"cs,omitempty"`
	CE      float64 `json:"ce,omitempty"`
}

// Duration is the span's interval length in nanoseconds.
func (s Span) Duration() int64 { return s.EndNs - s.StartNs }

// Collector records the spans of one region (a sim kernel, a sharded-run
// region, or a live daemon). The zero value is not useful; a nil
// *Collector is — every method no-ops, which is how tracing is disabled.
type Collector struct {
	region int
	next   uint64
	spans  []Span
	open   map[uint64]int // span id -> index of spans still missing EndNs
	// limit, when positive, is the most spans the collector holds; past
	// it every new span is refused (and counted) instead of recorded.
	limit   int
	refused uint64
}

// NewCollector returns a collector whose span ids carry the given region
// id in their high bits. Region ids must be unique across the collectors
// whose spans will be merged.
func NewCollector(region int) *Collector { return NewBoundedCollector(region, 0) }

// NewBoundedCollector is NewCollector for a producer with no natural end
// (a daemon): once limit spans are held, every recording call returns the
// zero context — the operation, or the rest of it, runs untraced, so no
// recorded span ever names a parent that was refused — and Refused counts
// them. Simulator collectors need no bound: a run ends at its horizon.
func NewBoundedCollector(region, limit int) *Collector {
	return &Collector{region: region, open: make(map[uint64]int), limit: limit}
}

// Refused returns how many spans the bound turned away (0 for nil).
func (c *Collector) Refused() uint64 {
	if c == nil {
		return 0
	}
	return c.refused
}

// full reports (and counts) a span refused by the bound.
func (c *Collector) full() bool {
	if c.limit <= 0 || len(c.spans) < c.limit {
		return false
	}
	c.refused++
	return true
}

func (c *Collector) newID() uint64 {
	c.next++
	return uint64(c.region)<<regionShift | c.next
}

func (c *Collector) push(s Span) int {
	s.Seq = c.next
	c.spans = append(c.spans, s)
	return len(c.spans) - 1
}

// StartTrace opens a new trace whose root span starts now; the root span
// id doubles as the trace id. Returns the context to thread into child
// spans and outbound messages. Nil collector: zero context.
func (c *Collector) StartTrace(now int64, node int, phase, name string) protocol.TraceContext {
	if c == nil || c.full() {
		return protocol.TraceContext{}
	}
	id := c.newID()
	c.open[id] = c.push(Span{
		Trace: id, ID: id, Region: c.region, Node: node,
		Phase: phase, Name: name, StartNs: now, EndNs: now,
	})
	return protocol.TraceContext{TraceID: id, SpanID: id}
}

// StartChild opens a span under parent, starting now. A zero parent (the
// operation is untraced) or nil collector returns a zero context, so an
// untraced operation stays untraced all the way down.
func (c *Collector) StartChild(now int64, parent protocol.TraceContext, node int, phase, name string) protocol.TraceContext {
	if c == nil || parent.TraceID == 0 || c.full() {
		return protocol.TraceContext{}
	}
	id := c.newID()
	c.open[id] = c.push(Span{
		Trace: parent.TraceID, ID: id, Parent: parent.SpanID, Region: c.region,
		Node: node, Phase: phase, Name: name, StartNs: now, EndNs: now,
	})
	return protocol.TraceContext{TraceID: parent.TraceID, SpanID: id, ParentID: parent.SpanID}
}

// Finish closes the span identified by ctx at now. Unknown or zero
// contexts (including every context on a nil collector) are ignored.
func (c *Collector) Finish(ctx protocol.TraceContext, now int64) {
	c.FinishAs(ctx, now, "")
}

// FinishAs closes the span and, when name is non-empty, renames it — the
// query root span learns its answer route only at Answer time.
func (c *Collector) FinishAs(ctx protocol.TraceContext, now int64, name string) {
	c.finish(ctx, now, name)
}

// FinishNoted is FinishAs for a root that resolves with an annotation:
// the query root learns item, level and the judge's verdict at Answer or
// Fail time. The annotation is copied only when the span is recorded, so
// the call costs nothing on a nil collector or an untraced query.
func (c *Collector) FinishNoted(ctx protocol.TraceContext, now int64, name string, a Annot) {
	if s := c.finish(ctx, now, name); s != nil {
		note := a // taking &a would move the parameter to the heap on every call
		s.Annot = &note
	}
}

func (c *Collector) finish(ctx protocol.TraceContext, now int64, name string) *Span {
	if c == nil || ctx.SpanID == 0 {
		return nil
	}
	i, ok := c.open[ctx.SpanID]
	if !ok {
		return nil
	}
	delete(c.open, ctx.SpanID)
	c.spans[i].EndNs = now
	if name != "" {
		c.spans[i].Name = name
	}
	return &c.spans[i]
}

// Event records an instantaneous, parentless, annotated span — a role
// transition or a fault — and returns its context so the caller can hang
// per-node children on it with Emit. Nil collector: zero context.
func (c *Collector) Event(now int64, node int, phase, name string, a Annot) protocol.TraceContext {
	if c == nil || c.full() {
		return protocol.TraceContext{}
	}
	id := c.newID()
	note := a // as in FinishNoted
	c.push(Span{
		Trace: id, ID: id, Region: c.region, Node: node,
		Phase: phase, Name: name, StartNs: now, EndNs: now, Annot: &note,
	})
	return protocol.TraceContext{TraceID: id, SpanID: id}
}

// Emit records a complete span under parent in one call — for intervals
// whose start and end are both known at the recording site, like a
// network delivery [sent, delivered] or a relay-queue wait.
func (c *Collector) Emit(parent protocol.TraceContext, node int, phase, name string, startNs, endNs int64) protocol.TraceContext {
	if c == nil || parent.TraceID == 0 || c.full() {
		return protocol.TraceContext{}
	}
	id := c.newID()
	c.push(Span{
		Trace: parent.TraceID, ID: id, Parent: parent.SpanID, Region: c.region,
		Node: node, Phase: phase, Name: name, StartNs: startNs, EndNs: endNs,
	})
	return protocol.TraceContext{TraceID: parent.TraceID, SpanID: id, ParentID: parent.SpanID}
}

// Len returns the number of recorded spans (0 for nil).
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// Export returns the collector's spans ordered by (StartNs, Region, Seq)
// — the canonical trace order. Still-open spans are exported with
// EndNs == StartNs. The collector keeps ownership of nothing: the result
// is a copy safe to merge and mutate.
func (c *Collector) Export() []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	sortSpans(out)
	return out
}

// Merge combines span sets from several regions into one canonical
// (StartNs, Region, Seq) order. This is the determinism fix for
// multi-region runs: region goroutines finish in wall-clock order, so
// concatenation order is not reproducible — the sort key is.
func Merge(sets ...[]Span) []Span {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make([]Span, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	sortSpans(out)
	return out
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		return a.Seq < b.Seq
	})
}
