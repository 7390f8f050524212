package core

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// TestReorderedStaleUpdateRejected replays a duplicated-and-reordered
// UPDATE push through the handlers: the relay applies v2, then the
// network delivers a late copy of the v1 push. The stale replay must be
// discarded — cached versions never regress — and must not renew the TTR,
// which only fresh evidence may do.
func TestReorderedStaleUpdateRejected(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay

	m, _ := e.reg.Master(0)
	e.reg.Commit(0, e.k.Now())
	v1 := m.Current()
	e.reg.Commit(0, e.k.Now())
	v2 := m.Current()

	e.eng.onUpdate(e.k, 1, protocol.Message{
		Kind: protocol.KindUpdate, Item: 0, Origin: 0, Version: v2.Version, Copy: v2,
	})
	cp, _ := e.stores[1].Peek(0)
	if cp.Version != v2.Version {
		t.Fatalf("relay holds v%d after UPDATE v2", cp.Version)
	}

	// The reordered duplicate of the earlier push arrives last. The live
	// timers may legitimately renew the TTR meanwhile (a heard
	// INVALIDATION does), so the base is read just before the replay.
	e.k.RunUntil(e.k.Now() + 30*time.Second)
	refreshedAt := e.eng.peekWork(st).lastRefreshed
	e.eng.onUpdate(e.k, 1, protocol.Message{
		Kind: protocol.KindUpdate, Item: 0, Origin: 0, Version: v1.Version, Copy: v1,
	})
	cp, _ = e.stores[1].Peek(0)
	if cp.Version != v2.Version {
		t.Fatalf("stale UPDATE replay regressed the copy to v%d", cp.Version)
	}
	if e.eng.peekWork(st).lastRefreshed != refreshedAt {
		t.Error("stale UPDATE replay renewed the TTR")
	}
	pushes, _ := e.eng.StaleRejects()
	if pushes != 1 {
		t.Errorf("stalePushRejects = %d, want 1", pushes)
	}
}

// TestReorderedStaleSendNewRejected does the same for the GET_NEW repair
// reply: a SEND_NEW duplicated in flight and delivered after a newer one
// must not roll the store back or validate the copy.
func TestReorderedStaleSendNewRejected(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay

	m, _ := e.reg.Master(0)
	e.reg.Commit(0, e.k.Now())
	v1 := m.Current()
	e.reg.Commit(0, e.k.Now())
	v2 := m.Current()

	e.eng.onSendNew(e.k, 1, protocol.Message{
		Kind: protocol.KindSendNew, Item: 0, Origin: 0, Version: v2.Version, Copy: v2,
	})
	e.k.RunUntil(e.k.Now() + 10*time.Second)
	e.eng.onSendNew(e.k, 1, protocol.Message{
		Kind: protocol.KindSendNew, Item: 0, Origin: 0, Version: v1.Version, Copy: v1,
	})
	cp, _ := e.stores[1].Peek(0)
	if cp.Version != v2.Version {
		t.Fatalf("stale SEND_NEW replay regressed the copy to v%d", cp.Version)
	}
	pushes, _ := e.eng.StaleRejects()
	if pushes != 1 {
		t.Errorf("stalePushRejects = %d, want 1", pushes)
	}
}

// openPoll registers an in-flight poll round for host/item, as startPoll
// would, so ack handlers can be driven directly. It returns the round's
// seq: the ack that resolves the query releases the round.
func (e *env) openPoll(t *testing.T, host int, item data.ItemID) uint64 {
	t.Helper()
	r := e.eng.newRound(e.ch.Begin(e.k, host, item, consistency.LevelStrong))
	r.stage = 1
	e.eng.polls[r.q.Seq] = r
	return r.q.Seq
}

// resolved reports whether the poll round seq was closed by an answer:
// its round left the polls map and the chassis counted the answer.
func (e *env) resolved(seq uint64, answered uint64) bool {
	_, open := e.eng.polls[seq]
	return !open && e.ch.Answered() == answered
}

// TestPollAckRaceFreshThenStale: two relays both answer one poll. The
// fresh POLL_ACK_B resolves the query and closes the round; the late
// stale one must be a dead letter — it must not regress the cached copy
// or answer anything.
func TestPollAckRaceFreshThenStale(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2)
	m, _ := e.reg.Master(2)
	e.reg.Commit(2, e.k.Now())
	v1 := m.Current()
	e.reg.Commit(2, e.k.Now())
	v2 := m.Current()

	seq := e.openPoll(t, 0, 2)
	source := -1
	e.ch.SetAnswerObserver(func(_ *sim.Kernel, q *node.Query, _ data.Copy) { source = q.Source })
	e.eng.onPollAckB(e.k, 0, protocol.Message{
		Kind: protocol.KindPollAckB, Item: 2, Origin: 1, Version: v2.Version, Copy: v2, Seq: seq,
	})
	if !e.resolved(seq, 1) {
		t.Fatal("fresh ACK_B did not resolve the poll")
	}
	if source != 1 {
		t.Errorf("answer source = %d, want relay 1", source)
	}
	// The slower relay's stale answer arrives after the round settled.
	e.eng.onPollAckB(e.k, 0, protocol.Message{
		Kind: protocol.KindPollAckB, Item: 2, Origin: 3, Version: v1.Version, Copy: v1, Seq: seq,
	})
	cp, _ := e.stores[0].Peek(2)
	if cp.Version != v2.Version {
		t.Fatalf("late stale ACK_B regressed the copy to v%d", cp.Version)
	}
	if e.ch.Answered() != 1 {
		t.Errorf("answered = %d, want exactly 1", e.ch.Answered())
	}
}

// TestPollAckRaceStaleHitsOpenPoll: the stale relay wins the race to an
// open poll while a newer copy already landed at the poller (pushed by an
// UPDATE in flight). The handler must answer with the newer held copy,
// keep the store as-is, and count the rejected ack.
func TestPollAckRaceStaleHitsOpenPoll(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2)
	m, _ := e.reg.Master(2)
	e.reg.Commit(2, e.k.Now())
	v1 := m.Current()
	e.reg.Commit(2, e.k.Now())
	v2 := m.Current()

	seq := e.openPoll(t, 0, 2)
	// A pushed UPDATE upgrades the store to v2 while the poll is open.
	e.eng.onUpdate(e.k, 0, protocol.Message{
		Kind: protocol.KindUpdate, Item: 2, Origin: 2, Version: v2.Version, Copy: v2,
	})
	// The stale relay's ACK_B now reaches the still-open poll.
	e.eng.onPollAckB(e.k, 0, protocol.Message{
		Kind: protocol.KindPollAckB, Item: 2, Origin: 3, Version: v1.Version, Copy: v1, Seq: seq,
	})
	if !e.resolved(seq, 1) {
		t.Fatal("stale ACK_B left the poll open")
	}
	cp, _ := e.stores[0].Peek(2)
	if cp.Version != v2.Version {
		t.Fatalf("stale ACK_B regressed the copy to v%d", cp.Version)
	}
	_, acks := e.eng.StaleRejects()
	if acks != 1 {
		t.Errorf("staleAckRejects = %d, want 1", acks)
	}
	if e.ch.AuditViolations() != 0 {
		t.Error("answer from held copy flagged by auditor")
	}
}

// TestPollAckAStaleVouchDoesNotValidate: a POLL_ACK_A vouching for an
// older version than the poller now holds answers the query (the held
// copy is strictly better) but must not renew the TTP window — the ack
// carries no currency evidence for the newer copy.
func TestPollAckAStaleVouchDoesNotValidate(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2)
	st := e.eng.itemState(0, 2)
	validatedAt := st.lastValidated
	m, _ := e.reg.Master(2)
	e.reg.Commit(2, e.k.Now())
	e.reg.Commit(2, e.k.Now())
	v2 := m.Current()

	seq := e.openPoll(t, 0, 2)
	e.eng.onUpdate(e.k, 0, protocol.Message{
		Kind: protocol.KindUpdate, Item: 2, Origin: 2, Version: v2.Version, Copy: v2,
	})
	e.k.RunUntil(e.k.Now() + time.Second)
	// An ACK_A vouching only for v1 arrives for the open poll.
	e.eng.onPollAckA(e.k, 0, protocol.Message{
		Kind: protocol.KindPollAckA, Item: 2, Origin: 3, Version: 1, Seq: seq,
	})
	if !e.resolved(seq, 1) {
		t.Fatal("ACK_A left the poll open")
	}
	if st.lastValidated != validatedAt && st.lastValidated == e.k.Now() {
		t.Error("stale ACK_A vouch renewed the TTP window")
	}
	_, acks := e.eng.StaleRejects()
	if acks != 1 {
		t.Errorf("staleAckRejects = %d, want 1", acks)
	}
	if st.knownRelay == 3 {
		t.Error("stale authority learned as the known relay")
	}
}
