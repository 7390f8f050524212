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
// escalates a ring search to ring next, or gives up a direct fetch. Its
// holders are the fetches map, by seq, until it finishes, and its pending
// timeout. The Fire that finds it finished, or finishes it without
// re-arming, releases it; a fetch that ends before any timeout is armed
// is released where it ends.
type fetch struct {
	c    *Chassis
	host int
	item data.ItemID
	seq  uint64
	cb   FetchDone
	tc   protocol.TraceContext
	// next is the ring the pending timeout escalates to; -1 marks a
	// direct fetch.
	next int
	done bool
}

// Fire is the fetch's timeout, the last firing pending for it unless a
// ring search re-arms.
func (f *fetch) Fire(k *sim.Kernel) {
	c := f.c
	switch {
	case f.done:
	case f.next >= 0:
		if c.ring(k, f, f.next) {
			return
		}
	default:
		c.giveUp(k, f, "direct-timeout")
	}
	c.fetchSlots.Put(f)
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
	// Hub is the run's telemetry (optional; a nil hub records nothing).
	// Set it before the simulation starts.
	Hub *telemetry.Hub
	// Tracer is the run's causal-trace collector (optional; nil records
	// nothing and keeps every hot path allocation-free). Set it before
	// the simulation starts.
	Tracer *ctrace.Collector

	seq     uint64
	fetches map[uint64]*fetch
	// Query and fetch records go back to their pools at their last
	// holder: a query with the strategy record that owns it (Release), a
	// fetch at the timeout that finds it finished (fetch.Fire).
	queries    sim.Pool[Query]
	fetchSlots sim.Pool[fetch]

	// answerObserver, when set, sees every answered query after audit and
	// telemetry recording. The conformance oracle installs it to compare
	// served copies against its reference model.
	answerObserver func(k *sim.Kernel, q *Query, served data.Copy)

	issued      uint64
	answered    uint64
	failed      uint64
	failReasons map[string]uint64
	violations  uint64
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
		failReasons: make(map[string]uint64),
	}, nil
}

// NextSeq hands out process-wide unique sequence numbers for protocol
// rounds.
func (c *Chassis) NextSeq() uint64 {
	c.seq++
	return c.seq
}

// Begin registers a new query issued by host for item at the current time.
func (c *Chassis) Begin(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) *Query {
	c.issued++
	c.Hub.QueryIssued(level)
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
	c.answered++
	c.Latency.Record(k.Now() - q.IssuedAt)
	c.Tracer.FinishNoted(q.TC, k.Now().Nanoseconds(), q.Route, ctrace.Annot{
		Item:    int(q.Item),
		Level:   q.Level.String(),
		Served:  uint64(served.Version),
		StaleNs: stale.Nanoseconds(),
		Verdict: v.String(),
	})
	if v != consistency.ViolationNone {
		c.violations++
	}
	c.Hub.QueryAnswered(q.Level, k.Now()-q.IssuedAt, stale, v.String())
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
	c.failed++
	c.failReasons[reason]++
	if c.Tracer != nil && q.TC.TraceID != 0 {
		c.Tracer.FinishNoted(q.TC, c.Net.Kernel().Now().Nanoseconds(), "failed:"+reason,
			ctrace.Annot{Item: int(q.Item), Level: q.Level.String()})
	}
	c.Hub.QueryFailed(q.Level, reason)
}

// Issued returns the number of queries begun.
func (c *Chassis) Issued() uint64 { return c.issued }

// Answered returns the number of queries answered.
func (c *Chassis) Answered() uint64 { return c.answered }

// Failed returns the number of queries that failed.
func (c *Chassis) Failed() uint64 { return c.failed }

// AuditViolations returns how many answers violated their level.
func (c *Chassis) AuditViolations() uint64 { return c.violations }

// FailReasons returns failure reasons sorted by name.
func (c *Chassis) FailReasons() []ReasonCount {
	out := make([]ReasonCount, 0, len(c.failReasons))
	for r, n := range c.failReasons {
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
	f := c.newFetch(k, host, item, parent, cb, "ring")
	if !c.ring(k, f, 0) {
		c.fetchSlots.Put(f)
	}
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

func (c *Chassis) finishFetch(k *sim.Kernel, f *fetch, name string) {
	f.done = true
	delete(c.fetches, f.seq)
	c.Tracer.FinishAs(f.tc, k.Now().Nanoseconds(), name)
}

// giveUp finishes f unanswered under name and tells its callback.
func (c *Chassis) giveUp(k *sim.Kernel, f *fetch, name string) {
	c.finishFetch(k, f, name)
	f.cb.FetchDone(k, data.Copy{}, -1, false)
}

// ring floods ring idx of f's search and arms its timeout, reporting
// whether it did; past the last ring, or when the flood fails, it gives
// the fetch up instead.
func (c *Chassis) ring(k *sim.Kernel, f *fetch, idx int) bool {
	if idx >= len(c.cfg.RingTTLs) {
		c.giveUp(k, f, "ring-timeout")
		return false
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
		return false
	}
	f.next = idx + 1
	k.AfterTimer(c.cfg.RingTimeout, "node.fetch.ring", f)
	return true
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
		c.fetchSlots.Put(f)
		return
	}
	k.AfterTimer(c.cfg.DirectTimeout, "node.fetch.direct", f)
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
// dropped: finishing took the fetch out of the map, so they miss. The
// fetch's pending timeout releases it. Strategies route KindDataReply
// deliveries here.
func (c *Chassis) HandleDataReply(k *sim.Kernel, node int, msg protocol.Message) {
	f, ok := c.fetches[msg.Seq]
	if !ok || f.done || f.host != node || f.item != msg.Item {
		return
	}
	c.finishFetch(k, f, "")
	f.cb.FetchDone(k, msg.Copy, msg.Origin, true)
}

// PendingFetches returns the number of unresolved fetches (diagnostic).
func (c *Chassis) PendingFetches() int { return len(c.fetches) }
