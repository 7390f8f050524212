package core

import (
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// dispatch routes a delivered message to the appropriate side of the
// protocol (Fig 6b–d). Every delivery also counts toward the node's
// accessibility evidence (N_a).
func (e *Engine) dispatch(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
	e.deliveries[nd]++
	switch msg.Kind {
	case protocol.KindInvalidation:
		e.onInvalidation(k, nd, msg)
	case protocol.KindUpdate:
		e.onUpdate(k, nd, msg)
	case protocol.KindGetNew:
		e.onGetNew(k, nd, msg)
	case protocol.KindSendNew:
		e.onSendNew(k, nd, msg)
	case protocol.KindApply:
		e.onApply(k, nd, msg)
	case protocol.KindApplyAck:
		e.onApplyAck(k, nd, msg)
	case protocol.KindCancel:
		e.onCancel(nd, msg)
	case protocol.KindPoll:
		e.onPoll(k, nd, msg)
	case protocol.KindPollAckA:
		e.onPollAckA(k, nd, msg)
	case protocol.KindPollAckB:
		e.onPollAckB(k, nd, msg)
	case protocol.KindDataRequest:
		e.ch.HandleDataRequest(k, nd, msg)
	case protocol.KindDataReply:
		e.ch.HandleDataReply(k, nd, msg)
	}
}

// onInvalidation implements the relay-peer reaction of Fig 6(c) lines 1–13
// and the candidate APPLY trigger of §4.3: hearing an INVALIDATION proves
// the node is within TTL hops of the source host.
func (e *Engine) onInvalidation(k *sim.Kernel, nd int, msg protocol.Message) {
	st, ok := e.getItem(nd, msg.Item)
	if !ok {
		return // not caching this item
	}
	if msg.Version > st.invVersion {
		// Strictly newer version evidence reopens an exhausted repair
		// budget: the world has moved on, so the give-up no longer holds.
		if st.is(getNewGaveUp) {
			st.unset(getNewGaveUp)
			e.workOf(st).getNewAttempts = 0
		}
		if st.is(applyGaveUp) {
			st.unset(applyGaveUp)
			e.workOf(st).applyAttempts = 0
		}
		// The watermark only advances: a duplicated or reordered stale
		// announcement must not roll back what this node knows exists.
		st.invVersion = msg.Version
	}
	st.invAt = k.Now()
	st.set(invHeard)
	if st.knownRelay < 0 {
		// Hearing the INVALIDATION proves the source is within TTL hops:
		// until a closer relay answers a poll, validate against the
		// source directly rather than flooding.
		st.knownRelay = int32(msg.Origin)
	}

	switch st.role {
	case RoleRelay:
		cp, have := e.ch.Stores[nd].Peek(msg.Item)
		if !have {
			return
		}
		if cp.Version < st.invVersion {
			// Missed one or more updates (e.g. while disconnected, §4.5):
			// repair with GET_NEW. The debt clock starts at the first
			// missed announcement and runs until a refresh lands. The
			// comparison is against the watermark, not msg.Version, so a
			// reordered stale announcement cannot mask a known gap.
			if !st.is(debtOpen) {
				st.set(debtOpen)
				e.workOf(st).debtSince = k.Now()
			}
			e.sendGetNew(k, nd, msg.Item, st, msg.Trace)
			return
		}
		if msg.Version < st.invVersion {
			// The copy covers the watermark, but this announcement is a
			// stale replay: it is evidence from before the newest known
			// version existed and cannot renew the relay's authority.
			return
		}
		// Copy confirmed current: renew TTR (and the copy is trivially
		// valid for TTP purposes too), then serve any queued polls.
		st.unset(debtOpen)
		e.workOf(st).lastRefreshed = k.Now()
		st.set(refreshedOnce)
		st.lastValidated = k.Now()
		st.set(validatedOnce)
		e.flushPendingPolls(k, nd, msg.Item, st)
	case RoleCandidate:
		// Re-apply when the last APPLY has gone unanswered longer than
		// the current backoff gate — it (or its ACK) must have been lost.
		// The gate doubles with every unanswered send and the candidate
		// gives up at MaxRepairAttempts.
		if st.is(applyPending) {
			if e.cfg.DisableRepair {
				return
			}
			w := e.peekWork(st)
			if int(w.applyAttempts) >= e.cfg.MaxRepairAttempts {
				if !st.is(applyGaveUp) {
					st.set(applyGaveUp)
					e.meters.giveUps[repairApply].Inc()
				}
				return
			}
			if k.Now()-w.applySentAt < e.repairGate(int(w.applyAttempts)) {
				return
			}
		}
		st.set(applyPending)
		w := e.workOf(st)
		w.applySentAt = k.Now()
		w.applyAttempts++
		e.meters.attempts[repairApply].Inc()
		ap := protocol.Message{
			Kind:   protocol.KindApply,
			Item:   msg.Item,
			Origin: nd,
		}
		_ = e.ch.Net.Unicast(nd, e.ch.Reg.Owner(msg.Item), ap)
	}
}

// repairGate returns the resend gate after the given number of unanswered
// sends: RepairTimeout doubling per attempt, capped at RepairBackoffMax.
func (e *Engine) repairGate(attempts int) time.Duration {
	gate := e.cfg.RepairTimeout
	for i := 1; i < attempts; i++ {
		gate *= 2
		if gate >= e.cfg.RepairBackoffMax {
			return e.cfg.RepairBackoffMax
		}
	}
	return gate
}

// sendGetNew issues the GET_NEW repair unless one is already outstanding
// and inside its backoff gate; a lost SEND_NEW therefore delays repair by
// at most the current gate rather than wedging the relay forever, and a
// relay that cannot reach its source (permanent partition) stops asking
// after MaxRepairAttempts until newer version evidence arrives. parent is
// the trace context of whatever evidence triggered the repair (an
// INVALIDATION or stale UPDATE delivery); the repair round — including
// every backoff resend until SEND_NEW lands — is one repair span under it.
func (e *Engine) sendGetNew(k *sim.Kernel, nd int, item data.ItemID, st *itemState, parent protocol.TraceContext) {
	if e.cfg.DisableRepair {
		return
	}
	if st.is(getNewPending) {
		w := e.peekWork(st)
		if int(w.getNewAttempts) >= e.cfg.MaxRepairAttempts {
			if !st.is(getNewGaveUp) {
				st.set(getNewGaveUp)
				e.meters.giveUps[repairGetNew].Inc()
				if tc := w.repairTC; tc.TraceID != 0 {
					e.ch.Tracer.FinishAs(tc, k.Now().Nanoseconds(), "GET_NEW-gave-up")
					e.workOf(st).repairTC = protocol.TraceContext{}
				}
			}
			return
		}
		if k.Now()-w.getNewSentAt < e.repairGate(int(w.getNewAttempts)) {
			return
		}
	}
	st.set(getNewPending)
	w := e.workOf(st)
	w.getNewSentAt = k.Now()
	w.getNewAttempts++
	e.meters.attempts[repairGetNew].Inc()
	tc := w.repairTC
	if tc.TraceID == 0 {
		if tc = e.ch.Tracer.StartChild(k.Now().Nanoseconds(), parent, nd, ctrace.PhaseRepair, "GET_NEW"); tc.TraceID != 0 {
			w.repairTC = tc
		}
	}
	gn := protocol.Message{Kind: protocol.KindGetNew, Item: item, Origin: nd, Trace: tc}
	_ = e.ch.Net.Unicast(nd, e.ch.Reg.Owner(item), gn)
}

// onUpdate implements Fig 6(c) lines 23–25 for relays and Fig 6(d) lines
// 27–37 for candidates (missed APPLY_ACK) and demoted cache nodes (owner
// missed our CANCEL).
func (e *Engine) onUpdate(k *sim.Kernel, nd int, msg protocol.Message) {
	st, ok := e.getItem(nd, msg.Item)
	if !ok {
		// The copy was evicted; the owner evidently still lists us as a
		// relay — repeat the CANCEL it missed.
		e.sendCancel(k, nd, msg.Item)
		return
	}
	if e.cfg.Mutant != MutantStaleUpdate && e.cfg.Mutant != MutantStoreRegression {
		if held, have := e.ch.Stores[nd].Peek(msg.Item); have && msg.Copy.Version < held.Version {
			// A strictly newer copy is already held: this push is a
			// reordered or duplicated leftover and carries no evidence at
			// all. Rejecting it outright keeps application strictly
			// version-monotone.
			e.stalePushRejects++
			return
		}
	}
	// A push only proves the copy current when it is at least as new as
	// every version announced to this node. A duplicated old push (equal
	// to the held copy but behind the INVALIDATION watermark) must not
	// renew TTR, revalidate TTP or settle repair debt — that would extend
	// stale service by up to a full TTR on dead evidence.
	fresh := msg.Copy.Version >= st.invVersion || e.cfg.Mutant == MutantStaleUpdate
	e.storeRefresh(k, nd, msg.Copy, st, fresh)
	switch st.role {
	case RoleRelay:
		if fresh {
			e.workOf(st).lastRefreshed = k.Now()
			st.set(refreshedOnce)
			e.resetGetNew(k, st)
			e.flushPendingPolls(k, nd, msg.Item, st)
		} else {
			e.sendGetNew(k, nd, msg.Item, st, msg.Trace)
		}
	case RoleCandidate:
		// The APPLY_ACK was lost but the owner is pushing to us: we are a
		// relay in its table (Fig 6d line 28–31).
		st.role = RoleRelay
		e.resetApply(st)
		e.roleChanged(k, nd, msg.Item, moveUpdatePush)
		if fresh {
			e.workOf(st).lastRefreshed = k.Now()
			st.set(refreshedOnce)
			e.flushPendingPolls(k, nd, msg.Item, st)
		} else {
			e.sendGetNew(k, nd, msg.Item, st, msg.Trace)
		}
	default:
		// Plain cache node receiving UPDATE: the owner missed our CANCEL.
		// Keep the fresh data, repeat the CANCEL (Fig 6d lines 32–35).
		e.sendCancel(k, nd, msg.Item)
	}
}

// resetGetNew clears the GET_NEW retry state after a successful repair
// (or a role teardown), closing the open repair span at the current time.
func (e *Engine) resetGetNew(k *sim.Kernel, st *itemState) {
	st.unset(getNewPending | getNewGaveUp | debtOpen)
	if st.work == 0 {
		return
	}
	w := &e.works[st.work-1]
	w.getNewAttempts = 0
	if w.repairTC.TraceID != 0 {
		e.ch.Tracer.Finish(w.repairTC, k.Now().Nanoseconds())
		w.repairTC = protocol.TraceContext{}
	}
}

// resetApply clears the APPLY retry state after the handshake completes.
func (e *Engine) resetApply(st *itemState) {
	st.unset(applyPending | applyGaveUp)
	if st.work != 0 {
		e.works[st.work-1].applyAttempts = 0
	}
}

// storeRefresh puts an authoritative copy; validate marks it as a TTP
// validation point. Callers pass false for copies that are not fresh
// evidence (older than the newest version announced to this node): the
// content is still worth keeping if the store accepts it, but it proves
// nothing about currency.
func (e *Engine) storeRefresh(k *sim.Kernel, nd int, c data.Copy, st *itemState, validate bool) {
	evicted, has, err := e.ch.Stores[nd].PutEvict(c, k.Now())
	if has {
		// A refresh that had to insert (items-map/store desync after a
		// mid-flight eviction) can itself evict: the victim's relay
		// role, if any, must still CANCEL with its source — for every
		// replacement policy, not just LRU.
		e.dropItemState(k, nd, evicted)
	}
	if err != nil && e.cfg.Mutant == MutantStoreRegression {
		// Conformance mutant: bypass the cache's version-monotone guard
		// and install the older copy anyway.
		e.ch.Stores[nd].Remove(c.ID)
		err = e.ch.Stores[nd].Put(c, k.Now())
	}
	if err == nil && validate {
		st.lastValidated = k.Now()
		st.set(validatedOnce)
	}
}

// onGetNew serves a relay's repair request at the source host (Fig 6b
// lines 9–11).
func (e *Engine) onGetNew(k *sim.Kernel, nd int, msg protocol.Message) {
	if e.ch.Reg.Owner(msg.Item) != nd {
		return
	}
	// A GET_NEW proves the sender still acts as a relay peer; if a
	// transient partition got it pruned from the table (§4.5 MAC-layer
	// discovery), re-register it so it receives future UPDATE pushes.
	if e.addRelay(nd, msg.Origin) {
		e.meters.members[memberReRegister].Inc()
	}
	m, err := e.ch.Reg.Master(msg.Item)
	if err != nil {
		return
	}
	cur := m.Current()
	sn := protocol.Message{
		Kind:    protocol.KindSendNew,
		Item:    msg.Item,
		Origin:  nd,
		Version: cur.Version,
		Copy:    cur,
	}
	if e.ch.Tracer != nil && msg.Trace.TraceID != 0 {
		now := k.Now().Nanoseconds()
		sn.Trace = e.ch.Tracer.Emit(msg.Trace, nd, ctrace.PhaseServe, "SEND_NEW", now, now)
	}
	_ = e.ch.Net.Unicast(nd, msg.Origin, sn)
}

// onSendNew completes the relay's repair (Fig 6c lines 19–22).
func (e *Engine) onSendNew(k *sim.Kernel, nd int, msg protocol.Message) {
	st, ok := e.getItem(nd, msg.Item)
	if !ok {
		return
	}
	if e.cfg.Mutant != MutantStaleUpdate && e.cfg.Mutant != MutantStoreRegression {
		if held, have := e.ch.Stores[nd].Peek(msg.Item); have && msg.Copy.Version < held.Version {
			// Same monotone guard as onUpdate: a delayed repair reply that
			// lost the race to a newer copy is a dead letter.
			e.stalePushRejects++
			return
		}
	}
	fresh := msg.Copy.Version >= st.invVersion || e.cfg.Mutant == MutantStaleUpdate
	e.storeRefresh(k, nd, msg.Copy, st, fresh)
	if !fresh {
		// The reply repairs less than what is known to exist (a reordered
		// leftover from an earlier round): the repair is still owed.
		return
	}
	e.resetGetNew(k, st)
	if st.role == RoleRelay {
		e.workOf(st).lastRefreshed = k.Now()
		st.set(refreshedOnce)
		e.flushPendingPolls(k, nd, msg.Item, st)
	}
}

// onApply registers a relay candidate at the source host (Fig 6b lines
// 12–15).
func (e *Engine) onApply(k *sim.Kernel, nd int, msg protocol.Message) {
	if e.ch.Reg.Owner(msg.Item) != nd {
		return
	}
	if e.addRelay(nd, msg.Origin) {
		e.meters.members[memberApply].Inc()
	}
	ack := protocol.Message{
		Kind:   protocol.KindApplyAck,
		Item:   msg.Item,
		Origin: nd,
	}
	_ = e.ch.Net.Unicast(nd, msg.Origin, ack)
}

// onApplyAck promotes the candidate (Fig 6d lines 24–26). If the copy was
// already confirmed current by the INVALIDATION that triggered the APPLY,
// the new relay is immediately authoritative; otherwise it repairs first.
func (e *Engine) onApplyAck(k *sim.Kernel, nd int, msg protocol.Message) {
	st, ok := e.getItem(nd, msg.Item)
	if !ok || st.role != RoleCandidate {
		return
	}
	st.role = RoleRelay
	e.resetApply(st)
	e.meters.members[memberApplyAck].Inc()
	e.roleChanged(k, nd, msg.Item, moveApplyAck)
	cp, have := e.ch.Stores[nd].Peek(msg.Item)
	if have && st.is(invHeard) && cp.Version == st.invVersion && k.Now()-st.invAt < e.cfg.TTR {
		e.workOf(st).lastRefreshed = st.invAt
		st.set(refreshedOnce)
		return
	}
	if have && st.is(invHeard) && cp.Version < st.invVersion {
		e.sendGetNew(k, nd, msg.Item, st, msg.Trace)
	}
}

// onCancel removes a resigning relay at the source host (Fig 6b 16–18).
func (e *Engine) onCancel(nd int, msg protocol.Message) {
	if e.ch.Reg.Owner(msg.Item) != nd {
		return
	}
	if e.peers[nd].dropRelay(msg.Origin) {
		e.meters.members[memberCancel].Inc()
	}
}

// onPoll answers a cache node's validation request (Fig 6c lines 8–18).
// The source host itself also answers, authoritatively — it is the
// degenerate relay the fallback ring always reaches.
func (e *Engine) onPoll(k *sim.Kernel, nd int, msg protocol.Message) {
	if e.ch.Reg.Owner(msg.Item) == nd {
		m, err := e.ch.Reg.Master(msg.Item)
		if err != nil {
			return
		}
		e.answerPoll(k, nd, msg, m.Current())
		return
	}
	st, ok := e.getItem(nd, msg.Item)
	if !ok || st.role != RoleRelay {
		return
	}
	if !e.ttrValid(k, st) {
		// Stale relay: hold the poll until the next refresh (Fig 6c line
		// 16). The poller's own timeout escalates in parallel, so this
		// never stalls the query indefinitely. With eager refresh the
		// relay repairs right away instead of waiting out the TTR gap.
		// The queue is bounded: beyond it, older entries (whose pollers
		// have long since escalated) are discarded first.
		e.holdPoll(st, pendingPoll{
			from: msg.Origin, seq: msg.Seq, version: msg.Version, at: k.Now(),
			tc: msg.Trace,
		})
		if e.cfg.EagerRelayRefresh {
			e.sendGetNew(k, nd, msg.Item, st, msg.Trace)
		}
		return
	}
	cp, have := e.ch.Stores[nd].Peek(msg.Item)
	if !have {
		return
	}
	e.answerPoll(k, nd, msg, cp)
}

// answerPoll sends POLL_ACK_A when the poller's copy matches (or exceeds)
// the authority's, POLL_ACK_B carrying fresh content otherwise.
func (e *Engine) answerPoll(k *sim.Kernel, nd int, msg protocol.Message, authority data.Copy) {
	current := msg.Version >= authority.Version
	if e.cfg.Mutant == MutantAckAOffByOne {
		// Conformance mutant: vouch for pollers one version behind, so
		// they keep serving the superseded copy and never hear the fresh
		// content a POLL_ACK_B would carry.
		current = msg.Version+1 >= authority.Version
	}
	kind, name := protocol.KindPollAckA, "POLL_ACK_A"
	if !current {
		kind, name = protocol.KindPollAckB, "POLL_ACK_B"
	}
	ack := protocol.Message{
		Kind:    kind,
		Item:    msg.Item,
		Origin:  nd,
		Version: authority.Version,
		Seq:     msg.Seq,
	}
	if !current {
		ack.Copy = authority
	}
	if e.ch.Tracer != nil && msg.Trace.TraceID != 0 {
		now := k.Now().Nanoseconds()
		ack.Trace = e.ch.Tracer.Emit(msg.Trace, nd, ctrace.PhaseServe, name, now, now)
	}
	_ = e.ch.Net.Unicast(nd, msg.Origin, ack)
}

// flushPendingPolls answers the polls a relay queued while its TTR was
// expired. Entries older than TTN are dropped: their pollers have long
// since escalated.
func (e *Engine) flushPendingPolls(k *sim.Kernel, nd int, item data.ItemID, st *itemState) {
	if st.work == 0 || e.works[st.work-1].held == 0 {
		return
	}
	cp, have := e.ch.Stores[nd].Peek(item)
	if !have {
		e.dropPending(st)
		return
	}
	// The queue is detached before the walk, and each entry copied out
	// and given back before its answer is sent, so a delivery that
	// re-enters and queues or drops polls cannot reach an entry the walk
	// has yet to read.
	for next := e.takePending(st); next != nil; {
		p := *next
		e.heldPolls.Put(next)
		next = p.next
		if k.Now()-p.at > e.cfg.TTN {
			continue
		}
		pm := protocol.Message{
			Kind: protocol.KindPoll, Item: item, Origin: p.from,
			Version: p.version, Seq: p.seq,
		}
		if e.ch.Tracer != nil && p.tc.TraceID != 0 {
			// The queue wait is a phase of its own on the poller's critical
			// path: the span covers enqueue → refresh, and the ack chains
			// under it.
			pm.Trace = e.ch.Tracer.Emit(p.tc, nd, ctrace.PhaseRelayQueue, "pending-poll",
				p.at.Nanoseconds(), k.Now().Nanoseconds())
		}
		e.answerPoll(k, nd, pm, cp)
	}
	// Polls queued while the walk's answers were delivered go unanswered.
	e.dropPending(st)
}

// learnRelay remembers the answering relay as the poll target for next
// time. Answers from the source host itself are only learned while the
// node holds recent INVALIDATION evidence — i.e. it is within the
// invalidation TTL of the source. Nodes beyond the TTL therefore keep
// flooding their polls, exactly like the simple pull baseline, which is
// what ties RPCC's traffic to the TTL in the Fig 9 sweep.
func (e *Engine) learnRelay(k *sim.Kernel, st *itemState, msg protocol.Message) {
	if msg.Origin != e.ch.Reg.Owner(msg.Item) {
		st.knownRelay = int32(msg.Origin)
		return
	}
	if st.is(invHeard) && k.Now()-st.invAt < 2*e.cfg.TTN {
		st.knownRelay = int32(msg.Origin)
	}
}

// onPollAckA validates the poller's copy (Fig 6d lines 12–15). Late or
// duplicate acks for a settled poll fall through the e.polls lookup: the
// first answer wins, ends the round, and everything after it is a dead
// letter.
func (e *Engine) onPollAckA(k *sim.Kernel, nd int, msg protocol.Message) {
	r, ok := e.polls[msg.Seq]
	if !ok || r.host != nd || r.item != msg.Item {
		return
	}
	defer e.endRound(k, r)
	e.ch.Tracer.Finish(r.tc, k.Now().Nanoseconds())
	st := e.itemState(nd, msg.Item)
	cp, have := e.ch.Stores[nd].Peek(msg.Item)
	if !have {
		e.ch.Fail(r.q, "copy-lost")
		return
	}
	if msg.Version >= cp.Version {
		// The ack vouches for at least the version we hold: genuine
		// validation. When two authorities raced and the slower one was
		// behind (its ack vouches for less than we now hold), it renews
		// nothing and is not worth learning as a poll target.
		st.lastValidated = k.Now()
		st.set(validatedOnce)
		e.learnRelay(k, st, msg)
	} else {
		e.staleAckRejects++
	}
	r.q.Source = msg.Origin
	e.ch.Answer(k, r.q, cp)
}

// onPollAckB replaces the poller's stale copy and answers (Fig 6d lines
// 16–20).
func (e *Engine) onPollAckB(k *sim.Kernel, nd int, msg protocol.Message) {
	r, ok := e.polls[msg.Seq]
	if !ok || r.host != nd || r.item != msg.Item {
		return
	}
	defer e.endRound(k, r)
	e.ch.Tracer.Finish(r.tc, k.Now().Nanoseconds())
	st := e.itemState(nd, msg.Item)
	if held, have := e.ch.Stores[nd].Peek(msg.Item); have && msg.Copy.Version < held.Version &&
		e.cfg.Mutant != MutantStoreRegression {
		// Conflicting answers raced and this relay was behind (a newer
		// copy landed while the poll was in flight): keep the newer copy,
		// learn nothing from the stale authority, and answer with what we
		// hold — the cached version must never regress.
		e.staleAckRejects++
		r.q.Source = msg.Origin
		e.ch.Answer(k, r.q, held)
		return
	}
	e.learnRelay(k, st, msg)
	// The ack's content validates TTP only when it covers the newest
	// version this node knows exists; an answer from a TTR-stale relay
	// behind the watermark is content without currency evidence.
	e.storeRefresh(k, nd, msg.Copy, st, msg.Copy.Version >= st.invVersion)
	// Answer with whatever is now stored — it is msg.Copy unless a newer
	// version raced in, in which case newer is strictly better.
	cp, have := e.ch.Stores[nd].Peek(msg.Item)
	if !have {
		cp = msg.Copy
	}
	r.q.Source = msg.Origin
	e.ch.Answer(k, r.q, cp)
}
