package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// Telemetry supplies the per-node environmental signals the coefficient
// tracker consumes. Any field may be nil: switches and moves then read as
// zero (perfectly stable) and energy as full.
type Telemetry struct {
	Switches func(nd int) uint64
	Moves    func(nd int) uint64
	CE       func(nd int) float64
}

// itemState is one node's protocol state for one cached item. A 10k-node
// run holds about 100 000 of them, nearly all in RoleCache, so a state
// holds only what a plain holder reads or writes: its TTP base, the newest
// INVALIDATION it heard, its learned relay, its role and its flags. That
// is 40 bytes with no pointer, so the pool blocks the states are carved
// from are never scanned by the collector. What only APPLY candidates and
// relays use lives in a relayWork record from the engine's pool, named
// by index.
type itemState struct {
	// lastValidated is the TTP base: the last instant this node confirmed
	// its copy against an authority (poll ack, update, owner fetch).
	lastValidated time.Duration
	// invVersion/invAt remember the newest INVALIDATION heard, so a
	// candidate promoted by APPLY_ACK knows whether its copy was already
	// confirmed current in this interval.
	invVersion data.Version
	invAt      time.Duration
	// knownRelay is the last peer whose POLL_ACK validated this item
	// (-1 when none): subsequent polls unicast straight to it, falling
	// back to ring discovery when it stops answering. This is the
	// "locating the nearest cache node" mechanism §3 assumes, learned
	// from the protocol's own acks.
	knownRelay int32
	// work is 1 + the index of this state's relayWork in Engine.works, 0
	// until the state first needs one (Engine.workOf).
	work int32
	// failingRuns counts consecutive failing coefficient windows of a
	// candidate or relay (Fig 5 hysteresis); 0 for a plain holder.
	failingRuns int32
	role        Role
	flags       stateFlags
}

// stateFlags are an item state's booleans, one bit each.
type stateFlags uint8

const (
	validatedOnce stateFlags = 1 << iota // lastValidated is set
	refreshedOnce                        // lastRefreshed is set
	invHeard                             // invVersion/invAt are set
	applyPending                         // an APPLY awaits its APPLY_ACK
	applyGaveUp                          // the APPLY budget is exhausted
	getNewPending                        // a GET_NEW awaits its SEND_NEW
	getNewGaveUp                         // the GET_NEW budget is exhausted
	debtOpen                             // a missed version awaits repair
)

func (st *itemState) is(f stateFlags) bool { return st.flags&f != 0 }
func (st *itemState) set(f stateFlags)     { st.flags |= f }
func (st *itemState) unset(f stateFlags)   { st.flags &^= f }

// relayWork is the part of an item state only APPLY candidates and relays
// use, taken from the engine's pool the first time one of its fields is
// written and kept until the state is dropped (Engine.releaseWork).
type relayWork struct {
	// lastRefreshed is the TTR base (relay role): the last instant the
	// source (or its INVALIDATION) confirmed the relay's copy.
	lastRefreshed time.Duration
	applySentAt   time.Duration
	getNewSentAt  time.Duration
	// debtSince marks when this relay first heard a version newer than
	// its copy without having repaired yet — the age of its outstanding
	// repair debt (cleared on refresh, tracked for the chaos auditor).
	debtSince time.Duration
	// getNewAttempts counts consecutive unanswered GET_NEW sends; the
	// resend gate doubles with each one (capped at RepairBackoffMax) and
	// the node gives up at MaxRepairAttempts until strictly newer version
	// evidence reopens the budget. applyAttempts mirrors this for APPLY.
	getNewAttempts int32
	applyAttempts  int32
	// held counts the polls queued from head to tail (holdPoll).
	held       int32
	head, tail *pendingPoll
	// repairTC is the span of the in-flight GET_NEW repair round (zero
	// when none is open or tracing is off); closed when SEND_NEW lands,
	// the budget is exhausted, or the role is torn down.
	repairTC protocol.TraceContext
}

// workOf returns st's relay record, taking one from the pool on first
// use. The pointer is valid until the next workOf.
func (e *Engine) workOf(st *itemState) *relayWork {
	if st.work == 0 {
		if n := len(e.freeWork); n > 0 {
			st.work = e.freeWork[n-1]
			e.freeWork = e.freeWork[:n-1]
		} else {
			e.works = append(e.works, relayWork{})
			st.work = int32(len(e.works))
		}
	}
	return &e.works[st.work-1]
}

// peekWork returns a copy of st's relay record, or the zero record when
// st has none; it never takes one.
func (e *Engine) peekWork(st *itemState) relayWork {
	if st.work == 0 {
		return relayWork{}
	}
	return e.works[st.work-1]
}

// releaseWork gives a dropped state's relay record back to the pool,
// and its queued polls to theirs. The state no longer names the record,
// so a late write through a pointer a timer still holds cannot reach
// another state's record.
func (e *Engine) releaseWork(st *itemState) {
	if st.work == 0 {
		return
	}
	e.dropPending(st)
	e.works[st.work-1] = relayWork{}
	e.freeWork = append(e.freeWork, st.work)
	st.work = 0
}

// maxHeldPolls bounds a relay's poll queue: beyond it the oldest entry,
// whose poller has long since escalated, is dropped.
const maxHeldPolls = 64

// holdPoll appends p to the tail of st's poll queue, dropping the head
// when the queue is full.
func (e *Engine) holdPoll(st *itemState, p pendingPoll) {
	w := e.workOf(st)
	if w.held >= maxHeldPolls {
		old := w.head
		w.head, w.held = old.next, w.held-1
		e.heldPolls.Put(old)
	}
	r := e.heldPolls.New()
	*r = p
	if w.tail == nil {
		w.head = r
	} else {
		w.tail.next = r
	}
	w.tail, w.held = r, w.held+1
}

// takePending detaches st's poll queue and returns its head; the caller
// gives every entry back to the pool.
func (e *Engine) takePending(st *itemState) *pendingPoll {
	if st.work == 0 {
		return nil
	}
	w := &e.works[st.work-1]
	head := w.head
	w.head, w.tail, w.held = nil, nil, 0
	return head
}

// dropPending discards the polls st queued while its TTR was expired.
func (e *Engine) dropPending(st *itemState) {
	for p := e.takePending(st); p != nil; {
		next := p.next
		e.heldPolls.Put(p)
		p = next
	}
}

// pendingPoll is a POLL a relay could not answer because its TTR had
// expired; it is answered when the next refresh arrives (§4.3: "the relay
// peer has to wait for the next INVALIDATION"). Entries come from the
// engine's heldPolls pool and go back to it when they are answered or
// dropped, or when their relay record is released.
type pendingPoll struct {
	from    int
	seq     uint64
	version data.Version
	at      time.Duration
	// tc is the poll message's trace context; the wait in this queue
	// becomes a relay-queue span when the poll is finally answered.
	tc protocol.TraceContext
	// next is the entry queued after this one.
	next *pendingPoll
}

// peerState is one node's full protocol state.
type peerState struct {
	// Source-host side (the node's own item): the registered relay peers,
	// ascending — the order UPDATE pushes go out in.
	relays    []int32
	announced data.Version
	// Cache-node side: state per cached item (see items.go; touched only
	// through the engine's getItem/putItem/delItem/resetItems).
	items itemTable
}

// addRelay registers r at source host owner, reporting whether it was
// new. A relay set that outgrows its room moves to room carved from the
// engine's relayRows.
func (e *Engine) addRelay(owner, r int) bool {
	ps := &e.peers[owner]
	i, ok := slices.BinarySearch(ps.relays, int32(r))
	if !ok {
		ps.relays = slices.Insert(e.relayRows.Grow(ps.relays, 1), i, int32(r))
	}
	return !ok
}

// dropRelay unregisters r, reporting whether it was registered.
func (ps *peerState) dropRelay(r int) bool {
	i, ok := slices.BinarySearch(ps.relays, int32(r))
	if ok {
		ps.relays = slices.Delete(ps.relays, i, i+1)
	}
	return ok
}

// pollRound is one query's record past the local checks: the fetch of a
// missing copy (it is the fetch's FetchDone) and then the validation round
// (it is the poll timeout's Timer). Rounds come from the engine's pool and
// own their query. While fetching, the fetch holds the round; while
// polling, the polls map holds it by seq and timer is its pending stage
// timeout. Whatever resolves the query releases it (endRound).
type pollRound struct {
	e     *Engine
	q     *node.Query
	host  int
	item  data.ItemID
	stage int
	// have is the version the poller holds, carried by every stage's POLL.
	have data.Version
	// st is the state the running stage polled for; its timeout forgets
	// the learned relay there.
	st *itemState
	// tc is the span of the currently running escalation stage; the next
	// stage (or the resolving ack) closes it.
	tc    protocol.TraceContext
	timer *sim.Event
}

// Engine runs RPCC over a chassis. Construct with New, wire with Start,
// then feed OnQuery/OnUpdate from the workload generator.
type Engine struct {
	cfg   Config
	ch    *node.Chassis
	tel   Telemetry
	peers []peerState
	// sigs holds one signature word per node over the item ids in
	// peers[nd].items; written only by putItem, delItem and resetItems.
	sigs     []uint64
	trackers []CoeffTracker
	// states is the pool new item states are taken from (newItemState);
	// nothing is Put back, so a pointer a pending timer holds stays that
	// state's.
	states sim.Pool[itemState]
	// works holds the relay records item states name by index (workOf);
	// freeWork lists the indices dropped states gave back.
	works    []relayWork
	freeWork []int32
	// relayRows holds the source hosts' relay sets (addRelay).
	relayRows sim.RowSlab
	// heldPolls are the relays' queued polls (holdPoll).
	heldPolls sim.Pool[pendingPoll]
	// deliveries counts protocol messages handled per node; together with
	// cache accesses it forms N_a, the accessibility evidence of Eq 4.2.1.
	deliveries []uint64
	polls      map[uint64]*pollRound
	// rounds go back to the pool when their query resolves (endRound).
	rounds  sim.Pool[pollRound]
	started bool

	// meters are the engine's telemetry handles (Start).
	meters meters

	// Stage usage counters (diagnostics and the A4 ablation), published
	// at Finish.
	pollDirect   uint64
	pollRing     uint64
	pollFallback uint64
	relayForgets uint64

	// Monotonicity accounting: UPDATE/SEND_NEW pushes rejected because
	// they carried an older version than the stored copy (duplicated or
	// reordered in flight), and poll acks ignored for the same reason.
	stalePushRejects uint64
	staleAckRejects  uint64
}

// Relay-table events at a source host: the rpcc_relay_membership_total
// labels (memberEvents).
const (
	memberApply      = iota // APPLY registered a candidate
	memberApplyAck          // APPLY_ACK granted promotion
	memberCancel            // CANCEL deregistered a relay
	memberPrune             // MAC-layer discovery dropped an unreachable relay
	memberReRegister        // GET_NEW re-registered a pruned relay
	numMemberEvents
)

var memberEvents = [numMemberEvents]string{"apply", "apply-ack", "cancel", "prune", "re-register"}

// Repair kinds, the §4.5 retry machinery: the rpcc_repair_*_total labels.
const (
	repairGetNew = iota
	repairApply
	numRepairKinds
)

var repairKinds = [numRepairKinds]string{"get-new", "apply"}

// move is one Fig 5 role transition: from, to and why.
type move uint8

const (
	moveEligible     move = iota // cache → candidate: the coefficients pass
	moveApplyAck                 // candidate → relay: the source granted it
	moveUpdatePush               // candidate → relay: the source pushes to it
	moveCandDemoted              // candidate → cache: failing windows
	moveRelayDemoted             // relay → cache: failing windows
	moveInvDrift                 // relay → cache: out of the invalidation scope
	numMoves
)

var moves = [numMoves]struct {
	from, to Role
	reason   string
}{
	moveEligible:     {RoleCache, RoleCandidate, "eligible"},
	moveApplyAck:     {RoleCandidate, RoleRelay, "apply-ack"},
	moveUpdatePush:   {RoleCandidate, RoleRelay, "update-push"},
	moveCandDemoted:  {RoleCandidate, RoleCache, "demoted"},
	moveRelayDemoted: {RoleRelay, RoleCache, "demoted"},
	moveInvDrift:     {RoleRelay, RoleCache, "inv-drift"},
}

// meters are the counts and samples only telemetry keeps, as handles on
// the chassis's hub (nil handles, recording nothing, without one).
type meters struct {
	roles    [numMoves]*telemetry.Counter
	members  [numMemberEvents]*telemetry.Counter
	attempts [numRepairKinds]*telemetry.Counter
	giveUps  [numRepairKinds]*telemetry.Counter
	coeff    [3]*telemetry.Histogram // CAR, CS, CE
}

// newMeters registers the engine's instruments on hub.
func newMeters(hub *telemetry.Hub) meters {
	var m meters
	for i, mv := range moves {
		m.roles[i] = hub.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
			telemetry.Label{Key: "from", Value: mv.from.String()}, telemetry.Label{Key: "to", Value: mv.to.String()},
			telemetry.Label{Key: "reason", Value: mv.reason})
	}
	for i, ev := range memberEvents {
		m.members[i] = hub.Counter("rpcc_relay_membership_total",
			"Relay-table membership events at source hosts.", telemetry.Label{Key: "event", Value: ev})
	}
	for i, kind := range repairKinds {
		m.attempts[i] = hub.Counter("rpcc_repair_attempts_total",
			"GET_NEW/APPLY repair sends, including backoff retries.", telemetry.Label{Key: "kind", Value: kind})
		m.giveUps[i] = hub.Counter("rpcc_repair_giveups_total",
			"Repairs abandoned after MaxRepairAttempts unanswered sends.", telemetry.Label{Key: "kind", Value: kind})
	}
	for i, c := range []string{"car", "cs", "ce"} {
		m.coeff[i] = hub.Histogram("rpcc_coeff_value",
			"Election coefficient values observed at coefficient ticks.", telemetry.RatioBuckets,
			telemetry.Label{Key: "coeff", Value: c})
	}
	return m
}

// New builds an RPCC engine on the shared chassis.
func New(cfg Config, ch *node.Chassis, tel Telemetry) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("core: nil chassis")
	}
	tr, err := NewCoeffTracker(cfg.Omega, cfg.CoeffPeriod)
	if err != nil {
		return nil, err
	}
	n := ch.Net.Len()
	e := &Engine{
		cfg:        cfg,
		ch:         ch,
		tel:        tel,
		peers:      make([]peerState, n),
		sigs:       make([]uint64, n),
		trackers:   make([]CoeffTracker, n),
		deliveries: make([]uint64, n),
		polls:      make(map[uint64]*pollRound),
	}
	// Every node's item table, and the first block of item states, is sized
	// from its store's capacity up front: a warmed run fills exactly that.
	total := 0
	for nd := 0; nd < n; nd++ {
		total += ch.Stores[nd].Capacity()
	}
	ids, sts := make([]int32, total), make([]*itemState, total)
	e.states.Reserve(total)
	off := 0
	for nd := range e.peers {
		end := off + ch.Stores[nd].Capacity()
		e.peers[nd].items = itemTable{ids: ids[off:off:end], sts: sts[off:off:end]}
		e.trackers[nd] = *tr
		off = end
	}
	return e, nil
}

// newItemState returns a fresh cache-role state from the pool. Nothing is
// Put back to it, so New hands out zeroed records and only the non-zero
// fields are set.
func (e *Engine) newItemState() *itemState {
	st := e.states.New()
	st.role, st.knownRelay = RoleCache, -1
	return st
}

// Start registers the engine's instruments on the chassis's hub,
// installs receivers and schedules the periodic TTN and coefficient ticks
// for every node, staggered so sources do not flood in lockstep.
func (e *Engine) Start(k *sim.Kernel) error {
	if e.started {
		return fmt.Errorf("core: engine already started")
	}
	e.started = true
	e.meters = newMeters(e.ch.Hub)
	stagger := k.Stream("core.stagger")
	// One receiver value for every node: a closure per node is 10 000 cold
	// objects for the delivery path's indirect call to miss on.
	recv := netsim.Receiver(e.dispatch)
	// Each node's two periodic ticks are records from one array that
	// re-arm themselves, so neither set-up nor a tick allocates per node.
	ticks := make([]nodeTicks, e.ch.Net.Len())
	for nd := range ticks {
		if err := e.ch.Net.SetReceiver(nd, recv); err != nil {
			return err
		}
		t := &ticks[nd]
		t.ttn, t.coeff = ttnTimer{e, nd}, coeffTimer{e, nd}
		k.AfterTimer(time.Duration(stagger.Int63n(int64(e.cfg.TTN))), "rpcc.ttn", &t.ttn)
		k.AfterTimer(time.Duration(stagger.Int63n(int64(e.cfg.CoeffPeriod))), "rpcc.coeff", &t.coeff)
	}
	return nil
}

// nodeTicks is one node's pair of periodic tick records.
type nodeTicks struct {
	ttn   ttnTimer
	coeff coeffTimer
}

// ttnTimer is a node's TTN tick: it runs the tick, then re-arms itself.
type ttnTimer struct {
	e  *Engine
	nd int
}

func (t *ttnTimer) Fire(k *sim.Kernel) {
	t.e.ttnTick(k, t.nd)
	k.AfterTimer(t.e.cfg.TTN, "rpcc.ttn", t)
}

// coeffTimer is a node's coefficient tick, re-arming like ttnTimer.
type coeffTimer struct {
	e  *Engine
	nd int
}

func (t *coeffTimer) Fire(k *sim.Kernel) {
	t.e.coeffTick(k, t.nd)
	k.AfterTimer(t.e.cfg.CoeffPeriod, "rpcc.coeff", t)
}

// OnUpdate commits a new version of host's own item. Per Fig 6(b) the
// push to relay peers happens at the next TTN tick, not eagerly.
func (e *Engine) OnUpdate(k *sim.Kernel, host int) { e.ch.Commit(k, host) }

// OnQuery serves one query at the given consistency level (§4.4).
func (e *Engine) OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level) {
	q := e.ch.Begin(k, host, item, level)
	if e.ch.AnswerOwner(k, q) {
		return
	}
	cp, ok := e.ch.Stores[host].Get(item)
	if !ok {
		q.Route = "fetch"
		e.fetchMiss(k, q)
		return
	}
	st := e.itemState(host, item)
	switch {
	case level == consistency.LevelWeak:
		q.Route = "local"
		q.Source = host
		e.ch.Answer(k, q, cp)
	case st.role == RoleRelay && e.ttrValid(k, st):
		// A relay with a live TTR is the validation authority other
		// peers poll; its own copy is exactly as fresh as the answer a
		// poll would return, so it answers locally at any level.
		q.Route = "relay-local"
		q.Source = host
		e.ch.Answer(k, q, cp)
	case level == consistency.LevelDelta && e.ttpValid(k, st):
		q.Route = "local"
		q.Source = host
		e.ch.Answer(k, q, cp)
	default:
		e.startPoll(k, e.newRound(q), cp.Version)
		return
	}
	e.ch.Release(q)
}

// newRound returns a fresh round for q from the pool; the round owns q.
func (e *Engine) newRound(q *node.Query) *pollRound {
	r := e.rounds.New()
	*r = pollRound{e: e, q: q, host: q.Host, item: q.Item}
	return r
}

// endRound is r's one release point, called where its query resolves:
// it drops r from the polls map, cancels its pending stage timeout and
// gives r and its query back to their pools. Nothing may read r
// afterwards.
func (e *Engine) endRound(k *sim.Kernel, r *pollRound) {
	delete(e.polls, r.q.Seq)
	k.Cancel(r.timer)
	e.ch.Release(r.q)
	e.rounds.Put(r)
}

// PoolAudits checks the lifecycle of the engine's per-query pool
// (sim.Pool.Audit).
func (e *Engine) PoolAudits() []sim.PoolAudit {
	return []sim.PoolAudit{e.rounds.Audit("core.pollRound")}
}

// fetchMiss resolves a query for an item the host does not cache: locate a
// copy (expanding ring, §3's discovery substrate), cache it, then apply
// the level rules (FetchDone).
func (e *Engine) fetchMiss(k *sim.Kernel, q *node.Query) {
	e.ch.FetchRing(k, q.Host, q.Item, q.TC, e.newRound(q))
}

// FetchDone completes a miss's fetch: a copy obtained from the owner is
// authoritative, one from a peer must still be validated for SC and
// expired-Δ queries, by this round.
func (r *pollRound) FetchDone(k *sim.Kernel, c data.Copy, from int, ok bool) {
	e, q := r.e, r.q
	if !ok {
		e.ch.Fail(q, "fetch-timeout")
		e.endRound(k, r)
		return
	}
	e.putCopy(k, q.Host, c)
	st := e.itemState(q.Host, q.Item)
	fromOwner := from == e.ch.Reg.Owner(q.Item)
	if fromOwner {
		st.lastValidated = k.Now()
		st.set(validatedOnce)
	}
	switch {
	case q.Level == consistency.LevelWeak, fromOwner:
		q.Source = from
		e.ch.Answer(k, q, c)
	case q.Level == consistency.LevelDelta && e.ttpValid(k, st):
		q.Source = from
		e.ch.Answer(k, q, c)
	default:
		e.startPoll(k, r, c.Version)
		return
	}
	e.endRound(k, r)
}

// putCopy stores a copy at host, tearing down relay state for whatever the
// insertion evicted.
func (e *Engine) putCopy(k *sim.Kernel, host int, c data.Copy) {
	evicted, has, err := e.ch.Stores[host].PutEvict(c, k.Now())
	if err != nil {
		// Version regression: we already hold something newer. Keep it.
		return
	}
	if has {
		e.dropItemState(k, host, evicted)
	}
	e.itemState(host, c.ID)
}

// dropItemState removes per-item protocol state after an eviction,
// cancelling the relay role with the source host if needed and closing a
// repair round the relay had in flight. It is the only caller of delItem.
func (e *Engine) dropItemState(k *sim.Kernel, host int, item data.ItemID) {
	st, ok := e.delItem(host, item)
	if !ok {
		return
	}
	if st.role == RoleRelay {
		e.sendCancel(k, host, item)
	}
	e.resetGetNew(k, st)
	e.releaseWork(st)
}

// itemState returns (creating if absent) host's state for item.
func (e *Engine) itemState(host int, item data.ItemID) *itemState {
	st, ok := e.getItem(host, item)
	if !ok {
		st = e.newItemState()
		e.putItem(host, item, st)
	}
	return st
}

// ttpValid reports whether st's copy still satisfies Δ-consistency.
func (e *Engine) ttpValid(k *sim.Kernel, st *itemState) bool {
	win := e.cfg.TTP
	if e.cfg.Mutant == MutantTTPDouble {
		// Conformance mutant: honor twice the promised Δ window.
		win *= 2
	}
	return st.is(validatedOnce) && k.Now()-st.lastValidated < win
}

// ttrValid reports whether a relay's copy is still authoritative.
func (e *Engine) ttrValid(k *sim.Kernel, st *itemState) bool {
	if e.cfg.Mutant == MutantIgnoreTTR {
		// Conformance mutant: a relay that was refreshed once stays an
		// authority forever, never re-validating against the source.
		return st.is(refreshedOnce)
	}
	return st.is(refreshedOnce) && k.Now()-e.peekWork(st).lastRefreshed < e.cfg.TTR
}

// startPoll begins a validation round. With a known relay the poll is a
// cheap unicast straight to it; otherwise (or when it stops answering) a
// PollTTL ring flood discovers a relay, escalating to the network-wide
// PollFallbackTTL flood, then failing.
func (e *Engine) startPoll(k *sim.Kernel, r *pollRound, have data.Version) {
	r.have = have
	st := e.itemState(r.host, r.item)
	if st.knownRelay < 0 {
		r.stage = 1 // no known relay: go straight to ring discovery
	}
	e.polls[r.q.Seq] = r
	e.pollStage(k, r)
}

// Poll stages: 0 unicast to the learned relay, 1 ring flood, 2 fallback
// flood, 3 give up. No timeout of r is pending when it runs.
func (e *Engine) pollStage(k *sim.Kernel, r *pollRound) {
	// The previous stage (if any) escalated past: its span ends here.
	e.ch.Tracer.Finish(r.tc, k.Now().Nanoseconds())
	if r.stage >= 3 {
		e.ch.Fail(r.q, "poll-timeout")
		e.endRound(k, r)
		return
	}
	msg := protocol.Message{
		Kind:    protocol.KindPoll,
		Item:    r.item,
		Origin:  r.host,
		Version: r.have,
		Seq:     r.q.Seq,
	}
	st := e.itemState(r.host, r.item)
	var err error
	switch r.stage {
	case 0:
		e.pollDirect++
		r.q.Route = "poll-direct"
		r.tc = e.ch.Tracer.StartChild(k.Now().Nanoseconds(), r.q.TC, r.host, ctrace.PhasePoll, "poll-direct")
		msg.Trace = r.tc
		err = e.ch.Net.Unicast(r.host, int(st.knownRelay), msg)
	case 1:
		e.pollRing++
		r.q.Route = "poll-ring"
		r.tc = e.ch.Tracer.StartChild(k.Now().Nanoseconds(), r.q.TC, r.host, ctrace.PhasePoll, "poll-ring")
		msg.Trace = r.tc
		err = e.ch.Net.Flood(r.host, PollTTL, msg)
	default:
		e.pollFallback++
		r.q.Route = "poll-fallback"
		r.tc = e.ch.Tracer.StartChild(k.Now().Nanoseconds(), r.q.TC, r.host, ctrace.PhasePoll, "poll-fallback")
		msg.Trace = r.tc
		err = e.ch.Net.Flood(r.host, e.cfg.PollFallbackTTL, msg)
	}
	if err != nil {
		e.ch.Tracer.Finish(r.tc, k.Now().Nanoseconds())
		e.ch.Fail(r.q, "poll-send")
		e.endRound(k, r)
		return
	}
	r.st = st
	r.stage++
	r.timer = k.AfterTimer(e.cfg.PollTimeout, "rpcc.poll.timeout", r)
}

// Fire is the timeout of the stage that ran last (r.stage-1): it
// escalates to the next one, or gives the round up (pollStage).
func (r *pollRound) Fire(k *sim.Kernel) {
	r.timer = nil
	e := r.e
	if r.stage == 1 {
		// The learned relay went quiet (moved, demoted, partitioned):
		// forget it before falling back to discovery.
		r.st.knownRelay = -1
		e.relayForgets++
	}
	e.pollStage(k, r)
}

// ttnTick is the source host's periodic invalidation duty (Fig 6b): push
// UPDATE to relay peers when the item changed this interval, then flood
// INVALIDATION. The handler Start installs renews TTN after it.
func (e *Engine) ttnTick(k *sim.Kernel, nd int) {
	ps := &e.peers[nd]
	if e.cfg.ActiveSource != nil && !e.cfg.ActiveSource(nd) {
		return
	}
	item := e.ch.Reg.OwnedBy(nd)
	m, err := e.ch.Reg.Master(item)
	if err != nil {
		return
	}
	cur := m.Current()
	if cur.Version > ps.announced {
		// One update-push trace roots every relay unicast of this round.
		var utc protocol.TraceContext
		if e.ch.Tracer != nil {
			now := k.Now().Nanoseconds()
			utc = e.ch.Tracer.StartTrace(now, nd, ctrace.PhaseUpdate, "UPDATE")
			e.ch.Tracer.Finish(utc, now)
		}
		// MAC-layer disconnection discovery (§4.5): unreachable relay
		// peers are dropped from the table before pushing. The walk is
		// over a stack copy: a push to itself is delivered synchronously
		// and may re-enter the table.
		var buf [64]int32
		for _, r := range append(buf[:0], ps.relays...) {
			relay := int(r)
			if !e.ch.Net.Reachable(nd, relay) {
				ps.dropRelay(relay)
				e.meters.members[memberPrune].Inc()
				continue
			}
			upd := protocol.Message{
				Kind:    protocol.KindUpdate,
				Item:    item,
				Origin:  nd,
				Version: cur.Version,
				Copy:    cur,
				Trace:   utc,
			}
			_ = e.ch.Net.Unicast(nd, relay, upd)
		}
	}
	inv := protocol.Message{
		Kind:    protocol.KindInvalidation,
		Item:    item,
		Origin:  nd,
		Version: cur.Version,
	}
	if e.ch.Tracer != nil {
		now := k.Now().Nanoseconds()
		inv.Trace = e.ch.Tracer.StartTrace(now, nd, ctrace.PhaseInvalidate, "INVALIDATION")
		e.ch.Tracer.Finish(inv.Trace, now)
	}
	ttl := e.cfg.InvalidationTTL
	switch e.cfg.Mutant {
	case MutantFloodTTLPlusOne:
		ttl++
	case MutantFloodTTLMinusOne:
		if ttl > 1 {
			ttl--
		}
	}
	_ = e.ch.Net.Flood(nd, ttl, inv)
	ps.announced = cur.Version
}

// coeffTick recomputes nd's coefficients and applies the role transitions
// of Fig 5.
func (e *Engine) coeffTick(k *sim.Kernel, nd int) {
	sample := CoeffSample{
		// Accessibility evidence: cache accesses plus all radio activity
		// (sends, receptions, forwarding). A node that carries the
		// network's traffic is demonstrably reachable.
		Accesses: e.ch.Stores[nd].Accesses() + e.deliveries[nd] + e.ch.Net.Activity(nd),
		CE:       1,
	}
	if e.tel.Switches != nil {
		sample.Switches = e.tel.Switches(nd)
	}
	if e.tel.Moves != nil {
		sample.Moves = e.tel.Moves(nd)
	}
	if e.tel.CE != nil {
		sample.CE = e.tel.CE(nd)
	}
	tr := &e.trackers[nd]
	tr.Observe(sample)
	e.meters.coeff[0].Observe(tr.CAR())
	e.meters.coeff[1].Observe(tr.CS())
	e.meters.coeff[2].Observe(tr.CE())
	eligible := tr.Eligible(e.cfg.MuCAR, e.cfg.MuCS, e.cfg.MuCE)

	// The table is already in the order this walk needs. Walk a snapshot of
	// the ids, looking each state up when reached: the body sends CANCELs,
	// and whatever that re-enters may add to or remove from the table.
	var buf [16]int32
	for _, id := range append(buf[:0], e.peers[nd].items.ids...) {
		item := data.ItemID(id)
		st, ok := e.getItem(nd, item)
		if !ok {
			continue
		}
		// A relay that has not heard the source's INVALIDATION flood for
		// several TTN intervals has drifted beyond the invalidation TTL:
		// it is no longer part of the push scope and resigns (the relay
		// tier is defined by proximity to the source, §4.2/§5.3).
		if st.role == RoleRelay && k.Now() > 3*e.cfg.TTN && k.Now()-st.invAt > 3*e.cfg.TTN {
			st.role = RoleCache
			st.failingRuns = 0
			e.dropPending(st)
			e.resetGetNew(k, st)
			e.sendCancel(k, nd, item)
			e.roleChanged(k, nd, item, moveInvDrift)
			continue
		}
		if eligible {
			st.failingRuns = 0
			if st.role == RoleCache {
				st.role = RoleCandidate
				e.roleChanged(k, nd, item, moveEligible)
			}
			continue
		}
		if st.role == RoleCache {
			continue
		}
		// Candidates and relays step down only after DemoteAfter
		// consecutive failing windows (hysteresis over Fig 5).
		st.failingRuns++
		if int(st.failingRuns) < e.cfg.DemoteAfter {
			continue
		}
		st.failingRuns = 0
		switch st.role {
		case RoleCandidate:
			st.role = RoleCache
			e.resetApply(st)
			e.roleChanged(k, nd, item, moveCandDemoted)
		case RoleRelay:
			st.role = RoleCache
			e.dropPending(st)
			e.resetGetNew(k, st)
			e.sendCancel(k, nd, item)
			e.roleChanged(k, nd, item, moveRelayDemoted)
		}
	}
}

// roleChanged counts a Fig 5 role transition and, on a traced run,
// records it with the node's current election-coefficient inputs
// (Eq 4.2).
func (e *Engine) roleChanged(k *sim.Kernel, nd int, item data.ItemID, m move) {
	e.meters.roles[m].Inc()
	if e.ch.Tracer != nil {
		tr, mv := &e.trackers[nd], moves[m]
		e.ch.Tracer.Event(k.Now().Nanoseconds(), nd, ctrace.PhaseRole,
			mv.from.String()+">"+mv.to.String()+":"+mv.reason,
			ctrace.Annot{Item: int(item), CAR: tr.CAR(), CS: tr.CS(), CE: tr.CE()})
	}
}

func (e *Engine) sendCancel(k *sim.Kernel, nd int, item data.ItemID) {
	msg := protocol.Message{
		Kind:   protocol.KindCancel,
		Item:   item,
		Origin: nd,
	}
	_ = e.ch.Net.Unicast(nd, e.ch.Reg.Owner(item), msg)
}

// Warm pre-populates host's cache with copies and creates the protocol
// state for each, as the paper's assumed placement substrate would. Use
// before the simulation starts. A host's whole placement goes in as one
// batch: when the store takes it in one pass (cache.Store.Warm), the item
// table takes the store's ids and each copy's state, taken from the pool
// in the order given, is written at its id's place; anything else is put
// one copy at a time, exactly as that many putCopy calls.
func (e *Engine) Warm(k *sim.Kernel, host int, cs ...data.Copy) {
	t := &e.peers[host].items
	st := e.ch.Stores[host]
	if len(t.ids) != 0 || !st.Warm(cs, k.Now(), e.ch.Reg) {
		for _, c := range cs {
			e.putCopy(k, host, c)
		}
		return
	}
	for _, c := range cs {
		t.ids = append(t.ids, int32(c.ID))
	}
	slices.Sort(t.ids) // the store's ids, which Warm keeps ascending
	t.sts = slices.Grow(t.sts, len(t.ids))[:len(t.ids)]
	for _, c := range cs {
		i, _ := slices.BinarySearch(t.ids, int32(c.ID))
		t.sts[i] = e.newItemState()
		e.sigs[host] |= sigBit(c.ID)
	}
}

// SeedRelay installs host as an established relay for item: the copy is
// stamped refreshed, the role set, and the source host's relay table
// updated — the state the election and APPLY handshake would have reached
// by this point. Conformance and benchmark harnesses use it to start
// scenarios from a known relay topology instead of waiting out the
// coefficient warm-up. The host must already cache the item (Warm first).
func (e *Engine) SeedRelay(k *sim.Kernel, host int, item data.ItemID) error {
	if host < 0 || host >= len(e.peers) {
		return fmt.Errorf("core: seed relay host %d out of range", host)
	}
	if !e.ch.Stores[host].Contains(item) {
		return fmt.Errorf("core: seed relay host %d does not cache item %d", host, item)
	}
	st := e.itemState(host, item)
	st.role = RoleRelay
	e.workOf(st).lastRefreshed = k.Now()
	st.set(refreshedOnce)
	st.invAt = k.Now()
	owner := e.ch.Reg.Owner(item)
	if owner >= 0 && owner < len(e.peers) {
		e.addRelay(owner, host)
	}
	return nil
}

// Role returns nd's current role for item (RoleNone when not cached).
func (e *Engine) Role(nd int, item data.ItemID) Role {
	st, ok := e.getItem(nd, item)
	if !ok {
		return RoleNone
	}
	return st.role
}

// RelayCount returns the number of (node, item) relay registrations
// currently held across the network, as seen by the source hosts — the
// quantity the Fig 9 discussion ties to the invalidation TTL.
func (e *Engine) RelayCount() int {
	n := 0
	for nd := range e.peers {
		n += len(e.peers[nd].relays)
	}
	return n
}

// RoleCounts returns the node-side totals of (cache, candidate, relay)
// item-states across the network — the Fig 5 state distribution.
func (e *Engine) RoleCounts() (cacheN, candidateN, relayN int) {
	for nd := range e.peers {
		for _, st := range e.peers[nd].items.sts {
			switch st.role {
			case RoleCandidate:
				candidateN++
			case RoleRelay:
				relayN++
			default:
				cacheN++
			}
		}
	}
	return cacheN, candidateN, relayN
}

// RelayCountFor returns the number of relay peers registered with item's
// source host.
func (e *Engine) RelayCountFor(item data.ItemID) int {
	owner := e.ch.Reg.Owner(item)
	if owner < 0 || owner >= len(e.peers) {
		return 0
	}
	return len(e.peers[owner].relays)
}

// PollStats reports how often each poll stage ran (direct unicast to a
// learned relay, ring discovery flood, network-wide fallback flood) and
// how many times a learned relay was forgotten after going quiet.
func (e *Engine) PollStats() (direct, ring, fallback, forgets uint64) {
	return e.pollDirect, e.pollRing, e.pollFallback, e.relayForgets
}

// Publish folds the poll ladder's counts into the chassis's hub: polls
// sent per stage and learned relays forgotten. Call once, after the run;
// a nil hub is a no-op.
func (e *Engine) Publish() {
	// A zero count is not registered: the export skips it anyway.
	add := func(n uint64, name, help string, labels ...telemetry.Label) {
		if n > 0 {
			e.ch.Hub.Counter(name, help, labels...).Add(n)
		}
	}
	const polls = "Validation polls sent per stage."
	add(e.pollDirect, "rpcc_polls_total", polls, telemetry.Label{Key: "stage", Value: "direct"})
	add(e.pollRing, "rpcc_polls_total", polls, telemetry.Label{Key: "stage", Value: "ring"})
	add(e.pollFallback, "rpcc_polls_total", polls, telemetry.Label{Key: "stage", Value: "fallback"})
	add(e.relayForgets, "rpcc_relay_forgets_total", "Learned relays forgotten after going quiet.")
}

// StaleRejects reports how many stale UPDATE/SEND_NEW pushes and poll
// acks the version-monotonicity guards discarded.
func (e *Engine) StaleRejects() (pushes, acks uint64) {
	return e.stalePushRejects, e.staleAckRejects
}

// RepairScan walks every item state and returns the largest outstanding
// consecutive-attempt count for either repair kind. The chaos auditor's
// bounded-retry invariant asserts it never exceeds MaxRepairAttempts.
func (e *Engine) RepairScan() (maxGetNew, maxApply int) {
	for nd := range e.peers {
		for _, st := range e.peers[nd].items.sts {
			w := e.peekWork(st)
			maxGetNew = max(maxGetNew, int(w.getNewAttempts))
			maxApply = max(maxApply, int(w.applyAttempts))
		}
	}
	return maxGetNew, maxApply
}

// RelaysFor returns the relay node ids currently registered with item's
// source host, ascending. The fault plane uses it to aim targeted relay
// assassinations.
func (e *Engine) RelaysFor(item data.ItemID) []int {
	owner := e.ch.Reg.Owner(item)
	if owner < 0 || owner >= len(e.peers) {
		return nil
	}
	out := make([]int, len(e.peers[owner].relays))
	for i, r := range e.peers[owner].relays {
		out[i] = int(r)
	}
	return out
}

// RepairDebt is one relay's repair obligation for an item: the newest
// version it has heard announced against the version it actually holds.
// The §4.5 reconnection guarantee is conditional on hearing evidence, so
// the invariant auditor flags only debts left unserviced — not relays an
// invalidation never reached, nor relays whose last GET_NEW is still
// inside its resend gate when the evidence stops arriving.
type RepairDebt struct {
	Node    int
	Heard   data.Version  // newest version seen in an INVALIDATION
	HeardAt time.Duration // when INVALIDATION evidence last arrived (invAt)
	Since   time.Duration // when the debt first opened (first missed version)
	Held    data.Version  // version of the cached copy
	GaveUp  bool          // repair budget exhausted (invariant 4's domain)
	// RetryAt is when the last GET_NEW's resend gate expires: evidence
	// heard from then on is a retry trigger. Zero when none was sent.
	RetryAt time.Duration
}

// RepairDebts returns the repair state of every node holding item in the
// relay role, ascending by node id.
func (e *Engine) RepairDebts(item data.ItemID) []RepairDebt {
	var out []RepairDebt
	for nd := range e.peers {
		st, ok := e.getItem(nd, item)
		if !ok || st.role != RoleRelay || !st.is(invHeard) || !st.is(debtOpen) {
			continue
		}
		cp, have := e.ch.Stores[nd].Peek(item)
		if !have {
			continue
		}
		w := e.peekWork(st)
		d := RepairDebt{
			Node:    nd,
			Heard:   st.invVersion,
			HeardAt: st.invAt,
			Since:   w.debtSince,
			Held:    cp.Version,
			GaveUp:  st.is(getNewGaveUp),
		}
		if st.is(getNewPending) {
			d.RetryAt = w.getNewSentAt + e.repairGate(int(w.getNewAttempts))
		}
		out = append(out, d)
	}
	return out
}

// Crash wipes nd's volatile protocol state — cache contents, per-item
// roles and repair bookkeeping, the source-side relay table, coefficient
// histories, delivery counts — and fails its in-flight queries. Unlike a
// churn disconnection, which preserves state across the gap, a crashed
// node restarts cold and must re-discover everything. The node's master
// copies survive: owned data is durable, cached state is not.
func (e *Engine) Crash(k *sim.Kernel, nd int) error {
	if nd < 0 || nd >= len(e.peers) {
		return fmt.Errorf("core: crash node %d out of range", nd)
	}
	// Fail in-flight polls in ascending sequence order (map iteration
	// order must not leak into the event stream).
	seqs := make([]uint64, 0, len(e.polls))
	for seq, r := range e.polls {
		if r.host == nd {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		r := e.polls[seq]
		e.ch.Tracer.Finish(r.tc, k.Now().Nanoseconds())
		e.ch.Fail(r.q, "crash")
		e.endRound(k, r)
	}
	// A relay that crashes mid-repair takes its GET_NEW round down with it.
	for _, st := range e.peers[nd].items.sts {
		e.resetGetNew(k, st)
		e.releaseWork(st)
	}
	e.ch.Stores[nd].Clear()
	ps := &e.peers[nd]
	ps.relays, ps.announced = ps.relays[:0], 0
	e.resetItems(nd)
	tr, err := NewCoeffTracker(e.cfg.Omega, e.cfg.CoeffPeriod)
	if err != nil {
		return err
	}
	e.trackers[nd] = *tr
	e.deliveries[nd] = 0
	return nil
}

// Tracker exposes nd's coefficient tracker (read-only use).
func (e *Engine) Tracker(nd int) *CoeffTracker { return &e.trackers[nd] }
