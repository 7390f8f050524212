// Package node provides the per-strategy plumbing that every consistency
// strategy (RPCC and the push/pull baselines) shares: query lifecycle
// bookkeeping (issue → answer/fail, with latency recording and consistency
// auditing) and the cooperative-caching fetch machinery that locates a
// copy of a missing item (the "independent mechanism for replica placement
// and for locating the nearest cache node" the paper assumes in §3).
package node

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// Query is one in-flight query request, from the chassis pool (Begin).
// The strategy record that carries it past OnQuery owns it and gives it
// back with Release when that record is itself released; OnQuery releases
// a query it resolves on the spot.
type Query struct {
	Seq      uint64
	Host     int
	Item     data.ItemID
	Level    consistency.Level
	IssuedAt time.Duration
	// Route records how the strategy resolved the query ("local",
	// "relay", "poll", "fetch", ...) — purely observational, the name of
	// the query's root span once answered.
	Route string
	// Source is the node whose authority backed the answer: the host
	// itself for local/owner reads, the peer that supplied or validated
	// the copy otherwise. -1 means the strategy did not record it. Purely
	// observational, consumed by the conformance oracle.
	Source int
	// TC is the query's causal-trace context (the root span); zero when
	// tracing is off. Strategies copy it into the messages a query emits
	// so downstream spans join the query's DAG.
	TC       protocol.TraceContext
	resolved bool
}

// Resolved reports whether the query has been answered or failed.
func (q *Query) Resolved() bool { return q.resolved }

// FetchDone receives the outcome of a fetch: the copy, the node that
// supplied it, and true on success; a zero copy, -1 and false when every
// attempt timed out. Strategies use `from` to decide how much to trust the
// copy (a reply from the item's owner is authoritative). A strategy passes
// one of its own records, so starting a fetch allocates no closure.
type FetchDone interface {
	FetchDone(k *sim.Kernel, c data.Copy, from int, ok bool)
}

// fetch tracks one in-flight copy search. It is its own timeout: Fire
// escalates a ring search to ring next, or gives up a direct fetch. The
// fetches map holds it by seq and timer is its pending timeout until it
// finishes; finishFetch, its one release point, drops both.
type fetch struct {
	c    *Chassis
	host int
	item data.ItemID
	seq  uint64
	cb   FetchDone
	tc   protocol.TraceContext
	// next is the ring the pending timeout escalates to; -1 marks a
	// direct fetch.
	next  int
	timer *sim.Event
}

// Fire is the fetch's timeout: it escalates a ring search or gives a
// direct fetch up.
func (f *fetch) Fire(k *sim.Kernel) {
	f.timer = nil
	if f.next >= 0 {
		f.c.ring(k, f, f.next)
	} else {
		f.c.giveUp(k, f, "direct-timeout")
	}
}

// Config tunes the shared fetch machinery.
type Config struct {
	// RingTTLs is the expanding-ring search schedule for cooperative
	// fetches; each ring floods DATA_REQUEST with the given TTL and waits
	// RingTimeout before escalating.
	RingTTLs    []int
	RingTimeout time.Duration
	// DirectTimeout bounds a unicast fetch from the owner.
	DirectTimeout time.Duration
}

// DefaultConfig returns the fetch schedule used in the experiments: a
// local 4-hop ring, then the network-wide 8-hop flood (TTL_BR in Table 1).
func DefaultConfig() Config {
	return Config{
		RingTTLs:      []int{4, 8},
		RingTimeout:   500 * time.Millisecond,
		DirectTimeout: time.Second,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.RingTTLs) == 0 {
		return fmt.Errorf("node: empty ring schedule")
	}
	for _, ttl := range c.RingTTLs {
		if ttl <= 0 {
			return fmt.Errorf("node: non-positive ring TTL %d", ttl)
		}
	}
	if c.RingTimeout <= 0 {
		return fmt.Errorf("node: non-positive ring timeout %v", c.RingTimeout)
	}
	if c.DirectTimeout <= 0 {
		return fmt.Errorf("node: non-positive direct timeout %v", c.DirectTimeout)
	}
	return nil
}

// Chassis bundles the shared state. One chassis serves one strategy
// instance (one simulation run).
type Chassis struct {
	cfg     Config
	Net     Transport
	Reg     *data.Registry
	Stores  []*cache.Store
	Latency *stats.Latency
	Auditor *consistency.Auditor
	// Hub is the run's telemetry (optional; a nil hub records nothing),
	// installed by AttachTelemetry. Strategies register their own
	// instruments on it.
	Hub *telemetry.Hub
	// Tracer is the run's causal-trace collector (optional; nil records
	// nothing and keeps every hot path allocation-free). Set it before
	// the simulation starts.
	Tracer *ctrace.Collector

	seq     uint64
	fetches map[uint64]*fetch
	// Query and fetch records go back to their pools where their work is
	// resolved: a query with the strategy record that owns it (Release), a
	// fetch when it finishes (finishFetch).
	queries    sim.Pool[Query]
	fetchSlots sim.Pool[fetch]

	// answerObserver, when set, sees every answered query after audit and
	// telemetry recording. The conformance oracle installs it to compare
	// served copies against its reference model.
	answerObserver func(k *sim.Kernel, q *Query, served data.Copy)

	// The query ledger, per level slot (levelSlot): Issued, Answered and
	// Failed are the sums, Publish exports the valid levels.
	issued   [numLevelSlots]uint64
	answered [numLevelSlots]uint64
	failed   [numLevelSlots]uint64
	// failReasons counts failures by reason and by whether the query's
	// level was valid, since Publish exports only those that were.
	failReasons map[failReason]uint64

	// latency and staleness are the per-level histograms only telemetry
	// keeps (AttachTelemetry); slot 0 stays nil.
	latency   [numLevelSlots]*telemetry.Histogram
	staleness [numLevelSlots]*telemetry.Histogram
}

// numLevelSlots sizes the per-level ledger: slot 0 counts queries at an
// invalid level, slots 1..3 the consistency levels.
const numLevelSlots = int(consistency.LevelWeak) + 1

// levelSlot is l's slot in the per-level ledger.
func levelSlot(l consistency.Level) int {
	if !l.Valid() {
		return 0
	}
	return int(l)
}

// failReason keys one failure-reason tally.
type failReason struct {
	reason string
	valid  bool // the query's level was Valid
}

// NewChassis wires the shared plumbing. All dependencies are required.
func NewChassis(cfg Config, net Transport, reg *data.Registry, stores []*cache.Store, lat *stats.Latency, aud *consistency.Auditor) (*Chassis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net == nil || reg == nil || lat == nil || aud == nil {
		return nil, fmt.Errorf("node: nil dependency")
	}
	if len(stores) != net.Len() {
		return nil, fmt.Errorf("node: %d stores for %d nodes", len(stores), net.Len())
	}
	if reg.Len() != net.Len() {
		return nil, fmt.Errorf("node: %d items for %d nodes (paper model is m=n)", reg.Len(), net.Len())
	}
	return &Chassis{
		cfg:         cfg,
		Net:         net,
		Reg:         reg,
		Stores:      stores,
		Latency:     lat,
		Auditor:     aud,
		fetches:     make(map[uint64]*fetch),
		failReasons: make(map[failReason]uint64),
	}, nil
}

// AttachTelemetry installs the run's hub (nil records nothing) and
// registers the per-level query latency and staleness histograms on it.
// Call before the strategy is built, which registers its own instruments
// on c.Hub.
func (c *Chassis) AttachTelemetry(hub *telemetry.Hub) {
	c.Hub = hub
	for l := consistency.LevelStrong; l <= consistency.LevelWeak; l++ {
		lv := telemetry.Label{Key: "level", Value: l.String()}
		c.latency[l] = hub.Histogram("rpcc_query_latency_seconds",
			"Issue-to-answer latency per consistency level.", telemetry.TimeBuckets, lv)
		c.staleness[l] = hub.Histogram("rpcc_staleness_seconds",
			"Staleness of the served copy at delivery, per consistency level.", telemetry.TimeBuckets, lv)
	}
}

// Publish folds the query ledger and the auditor's verdicts into the hub:
// issued, answered and failed queries per level, failures by reason and
// violations by class. A query at an invalid level counts only in the
// chassis's own totals. Call once, after the run; a nil hub is a no-op.
func (c *Chassis) Publish() {
	// A zero count is not registered: the export skips it anyway.
	add := func(n uint64, name, help string, labels ...telemetry.Label) {
		if n > 0 {
			c.Hub.Counter(name, help, labels...).Add(n)
		}
	}
	const resolved = "Queries resolved by outcome."
	for l := consistency.LevelStrong; l <= consistency.LevelWeak; l++ {
		lv := telemetry.Label{Key: "level", Value: l.String()}
		add(c.issued[l], "rpcc_queries_issued_total", "Queries issued.", lv)
		add(c.answered[l], "rpcc_queries_resolved_total", resolved, lv, telemetry.Label{Key: "outcome", Value: "answered"})
		add(c.failed[l], "rpcc_queries_resolved_total", resolved, lv, telemetry.Label{Key: "outcome", Value: "failed"})
	}
	for key, n := range c.failReasons {
		if key.valid {
			add(n, "rpcc_query_failures_total", "Failed queries by reason.",
				telemetry.Label{Key: "reason", Value: key.reason})
		}
	}
	for v := consistency.ViolationNone + 1; v <= consistency.ViolationDelta; v++ {
		add(c.Auditor.Violations(v), "rpcc_audit_violations_total", "Answers violating their consistency level.",
			telemetry.Label{Key: "class", Value: v.String()})
	}
}

// NextSeq hands out process-wide unique sequence numbers for protocol
// rounds.
func (c *Chassis) NextSeq() uint64 {
	c.seq++
	return c.seq
}

// Begin registers a new query issued by host for item at the current time.
func (c *Chassis) Begin(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) *Query {
	c.issued[levelSlot(level)]++
	q := c.queries.New()
	*q = Query{
		Seq:      c.NextSeq(),
		Host:     host,
		Item:     item,
		Level:    level,
		IssuedAt: k.Now(),
		Source:   -1,
		TC:       c.Tracer.StartTrace(k.Now().Nanoseconds(), host, ctrace.PhaseQuery, "query"),
	}
	return q
}

// Release gives q back to the pool once its owner is done with it; the
// owner must not read q afterwards. A resolved query's record is reissued
// by a later Begin, so an observer must copy what it keeps.
func (c *Chassis) Release(q *Query) { c.queries.Put(q) }

// PoolAudits checks the query and fetch pools' lifecycles (sim.Pool.Audit).
func (c *Chassis) PoolAudits() []sim.PoolAudit {
	return []sim.PoolAudit{c.queries.Audit("node.Query"), c.fetchSlots.Audit("node.fetch")}
}

// SetAnswerObserver installs a hook invoked for every answered query,
// after auditing and telemetry; it must not keep q (see Release). Pass
// nil to remove it.
func (c *Chassis) SetAnswerObserver(fn func(k *sim.Kernel, q *Query, served data.Copy)) {
	c.answerObserver = fn
}

// Commit is every strategy's OnUpdate: host's master commits a new
// version now. Time regression is impossible on the simulation clock, so
// an error here is a harness bug and must not be silent.
func (c *Chassis) Commit(k *sim.Kernel, host int) {
	m, err := c.Reg.Master(c.Reg.OwnedBy(host))
	if err != nil {
		return
	}
	if _, err := m.Update(k.Now()); err != nil {
		panic(fmt.Sprintf("node: master update failed: %v", err))
	}
}

// AnswerOwner is the first step of every strategy's OnQuery: when q's
// host owns the item it reads the master copy locally, at every level,
// resolves and releases q, and reports true; otherwise it leaves q alone.
func (c *Chassis) AnswerOwner(k *sim.Kernel, q *Query) bool {
	if c.Reg.Owner(q.Item) != q.Host {
		return false
	}
	if m, err := c.Reg.Master(q.Item); err != nil {
		c.Fail(q, "unknown-item")
	} else {
		q.Route = "owner"
		q.Source = q.Host
		c.Answer(k, q, m.Current())
	}
	c.Release(q)
	return true
}

// Answer resolves q with the served copy: it audits the answer against
// ground truth, records latency, and stores nothing (callers decide about
// caching). Double resolution is ignored so racing reply paths are safe.
func (c *Chassis) Answer(k *sim.Kernel, q *Query, served data.Copy) {
	if q == nil || q.resolved {
		return
	}
	v, stale, err := c.Auditor.CheckStale(consistency.Answer{
		Item:       q.Item,
		Level:      q.Level,
		AnsweredAt: k.Now(),
		Served:     served,
	})
	if err != nil {
		// Audit errors indicate simulation bugs (unknown item, bad
		// level). The query fails under the error, loudly, so it is not
		// also counted answered and Issued = Answered + Failed + open.
		c.Fail(q, "audit-error:"+err.Error())
		return
	}
	q.resolved = true
	slot := levelSlot(q.Level)
	c.answered[slot]++
	c.Latency.Record(k.Now() - q.IssuedAt)
	c.latency[slot].ObserveDuration(k.Now() - q.IssuedAt)
	if stale != consistency.Unknown {
		c.staleness[slot].ObserveDuration(stale)
	}
	c.Tracer.FinishNoted(q.TC, k.Now().Nanoseconds(), q.Route, ctrace.Annot{
		Item:    int(q.Item),
		Level:   q.Level.String(),
		Served:  uint64(served.Version),
		StaleNs: stale.Nanoseconds(),
		Verdict: v.String(),
	})
	if c.answerObserver != nil {
		c.answerObserver(k, q, served)
	}
}

// Fail resolves q unanswered, recording the reason. Queries that a
// strategy abandons (partition, timeout cascade) land here and are
// reported separately from latency so they cannot flatter the mean.
func (c *Chassis) Fail(q *Query, reason string) {
	if q == nil || q.resolved {
		return
	}
	q.resolved = true
	c.failed[levelSlot(q.Level)]++
	c.failReasons[failReason{reason, q.Level.Valid()}]++
	if c.Tracer != nil && q.TC.TraceID != 0 {
		c.Tracer.FinishNoted(q.TC, c.Net.Kernel().Now().Nanoseconds(), "failed:"+reason,
			ctrace.Annot{Item: int(q.Item), Level: q.Level.String()})
	}
}

// Issued returns the number of queries begun.
func (c *Chassis) Issued() uint64 { return sum(c.issued) }

// Answered returns the number of queries answered.
func (c *Chassis) Answered() uint64 { return sum(c.answered) }

// Failed returns the number of queries that failed.
func (c *Chassis) Failed() uint64 { return sum(c.failed) }

func sum(slots [numLevelSlots]uint64) uint64 {
	var n uint64
	for _, v := range slots {
		n += v
	}
	return n
}

// AuditViolations returns how many answers violated their level.
func (c *Chassis) AuditViolations() uint64 { return c.Auditor.TotalViolations() }

// FailReasons returns failure reasons sorted by name, at every level.
func (c *Chassis) FailReasons() []ReasonCount {
	byReason := make(map[string]uint64, len(c.failReasons))
	for key, n := range c.failReasons {
		byReason[key.reason] += n
	}
	out := make([]ReasonCount, 0, len(byReason))
	for r, n := range byReason {
		out = append(out, ReasonCount{Reason: r, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reason < out[j].Reason })
	return out
}

// ReasonCount is one failure-reason tally.
type ReasonCount struct {
	Reason string
	Count  uint64
}

// FetchRing searches for a copy of item with expanding-ring DATA_REQUEST
// floods from host, telling cb exactly once with the first reply or with
// ok=false after the last ring times out. parent is the causal-trace
// context the search runs under (zero when untraced): the whole search
// becomes one fetch span whose transit/serve children the network layer
// records.
func (c *Chassis) FetchRing(k *sim.Kernel, host int, item data.ItemID, parent protocol.TraceContext, cb FetchDone) {
	c.ring(k, c.newFetch(k, host, item, parent, cb, "ring"), 0)
}

// newFetch registers a fetch record under a fresh sequence number.
func (c *Chassis) newFetch(k *sim.Kernel, host int, item data.ItemID, parent protocol.TraceContext, cb FetchDone, name string) *fetch {
	f := c.fetchSlots.New()
	*f = fetch{c: c, host: host, item: item, cb: cb,
		tc: c.Tracer.StartChild(k.Now().Nanoseconds(), parent, host, ctrace.PhaseFetch, name)}
	f.seq = c.NextSeq()
	c.fetches[f.seq] = f
	return f
}

// finishFetch is f's one release point: it drops f from the fetches map,
// ends its span under name, cancels its pending timeout and gives f back
// to the pool, returning the callback the caller then tells.
func (c *Chassis) finishFetch(k *sim.Kernel, f *fetch, name string) FetchDone {
	delete(c.fetches, f.seq)
	c.Tracer.FinishAs(f.tc, k.Now().Nanoseconds(), name)
	k.Cancel(f.timer)
	cb := f.cb
	c.fetchSlots.Put(f)
	return cb
}

// giveUp finishes f unanswered under name and tells its callback.
func (c *Chassis) giveUp(k *sim.Kernel, f *fetch, name string) {
	c.finishFetch(k, f, name).FetchDone(k, data.Copy{}, -1, false)
}

// ring floods ring idx of f's search and arms its timeout; past the last
// ring, or when the flood fails, it gives the fetch up instead.
func (c *Chassis) ring(k *sim.Kernel, f *fetch, idx int) {
	if idx >= len(c.cfg.RingTTLs) {
		c.giveUp(k, f, "ring-timeout")
		return
	}
	msg := protocol.Message{
		Kind:   protocol.KindDataRequest,
		Item:   f.item,
		Origin: f.host,
		Seq:    f.seq,
		Trace:  f.tc,
	}
	if err := c.Net.Flood(f.host, c.cfg.RingTTLs[idx], msg); err != nil {
		c.giveUp(k, f, "ring-error")
		return
	}
	f.next = idx + 1
	f.timer = k.AfterTimer(c.cfg.RingTimeout, "node.fetch.ring", f)
}

// FetchDirect asks the owner of item for its master copy with a unicast
// DATA_REQUEST, telling cb once with the reply or with ok=false on
// timeout. parent is the causal-trace context of the fetch (zero when
// untraced).
func (c *Chassis) FetchDirect(k *sim.Kernel, host int, item data.ItemID, parent protocol.TraceContext, cb FetchDone) {
	f := c.newFetch(k, host, item, parent, cb, "direct")
	f.next = -1
	msg := protocol.Message{
		Kind:   protocol.KindDataRequest,
		Item:   item,
		Origin: host,
		Seq:    f.seq,
		Trace:  f.tc,
	}
	owner := c.Reg.Owner(item)
	if err := c.Net.Unicast(host, owner, msg); err != nil {
		c.giveUp(k, f, "direct-error")
		return
	}
	f.timer = k.AfterTimer(c.cfg.DirectTimeout, "node.fetch.direct", f)
}

// HandleDataRequest serves a DATA_REQUEST arriving at node: owners answer
// with the master copy, cache holders with their cached copy. Strategies
// route KindDataRequest deliveries here.
func (c *Chassis) HandleDataRequest(k *sim.Kernel, node int, msg protocol.Message) {
	var served data.Copy
	if c.Reg.Owner(msg.Item) == node {
		m, err := c.Reg.Master(msg.Item)
		if err != nil {
			return
		}
		served = m.Current()
	} else if cp, ok := c.Stores[node].Peek(msg.Item); ok {
		served = cp
	} else {
		return // nothing to offer
	}
	reply := protocol.Message{
		Kind:    protocol.KindDataReply,
		Item:    msg.Item,
		Origin:  node,
		Version: served.Version,
		Copy:    served,
		Seq:     msg.Seq,
	}
	if c.Tracer != nil && msg.Trace.TraceID != 0 {
		now := k.Now().Nanoseconds()
		reply.Trace = c.Tracer.Emit(msg.Trace, node, ctrace.PhaseServe, "DATA_REPLY", now, now)
	}
	// Best-effort: a failed unicast surfaces via the requester's timeout.
	_ = c.Net.Unicast(node, msg.Origin, reply)
}

// HandleDataReply resolves the pending fetch matching the reply's Seq.
// Later duplicate replies (multiple holders answered the flood) are
// dropped: finishing took the fetch out of the map, so they miss.
// Strategies route KindDataReply deliveries here.
func (c *Chassis) HandleDataReply(k *sim.Kernel, node int, msg protocol.Message) {
	f, ok := c.fetches[msg.Seq]
	if !ok || f.host != node || f.item != msg.Item {
		return
	}
	c.finishFetch(k, f, "").FetchDone(k, msg.Copy, msg.Origin, true)
}

// PendingFetches returns the number of unresolved fetches (diagnostic).
func (c *Chassis) PendingFetches() int { return len(c.fetches) }
