package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// TestItemTableMatchesMapProperty drives getItem / putItem / delItem /
// resetItems with a seeded operation stream and checks them, after every
// step, against the map they replaced. The id space is 40 residues × 4
// multiples of 64, so ids collide in the signature word all the time and
// tables grow to several times the ten entries a node really holds.
func TestItemTableMatchesMapProperty(t *testing.T) {
	const nodes = 3
	e := &Engine{peers: make([]peerState, nodes), sigs: make([]uint64, nodes)}
	model := make([]map[data.ItemID]*itemState, nodes)
	for nd := range e.peers {
		model[nd] = map[data.ItemID]*itemState{}
	}
	rng := rand.New(rand.NewSource(42))
	randID := func() data.ItemID { return data.ItemID(rng.Intn(40) + 64*rng.Intn(4)) }
	maxLen := 0
	for step := 0; step < 5000; step++ {
		nd, id := rng.Intn(nodes), randID()
		switch op := rng.Intn(100); {
		case op < 50: // put (insert or replace)
			st := &itemState{knownRelay: int32(step)}
			e.putItem(nd, id, st)
			model[nd][id] = st
		case op < 99: // del, present or not
			got, ok := e.delItem(nd, id)
			want, had := model[nd][id]
			if ok != had || got != want {
				t.Fatalf("step %d: delItem(%d, %d) = %p, %v; model %p, %v", step, nd, id, got, ok, want, had)
			}
			delete(model[nd], id)
		default: // crash reset
			e.resetItems(nd)
			model[nd] = map[data.ItemID]*itemState{}
			if e.sigs[nd] != 0 || len(e.peers[nd].items.ids) != 0 || len(e.peers[nd].items.sts) != 0 {
				t.Fatalf("step %d: resetItems(%d) left word %#x, table %v", step, nd, e.sigs[nd], e.peers[nd].items.ids)
			}
		}
		for nd := range e.peers {
			tab := &e.peers[nd].items
			if len(tab.ids) != len(model[nd]) || len(tab.sts) != len(tab.ids) {
				t.Fatalf("step %d: node %d holds %d ids / %d states, model %d", step, nd, len(tab.ids), len(tab.sts), len(model[nd]))
			}
			if len(tab.ids) > maxLen {
				maxLen = len(tab.ids)
			}
			var sig uint64
			for i, have := range tab.ids {
				if i > 0 && tab.ids[i-1] >= have {
					t.Fatalf("step %d: node %d ids not strictly ascending: %v", step, nd, tab.ids)
				}
				if tab.sts[i] != model[nd][data.ItemID(have)] {
					t.Fatalf("step %d: node %d id %d holds the wrong state", step, nd, have)
				}
				sig |= 1 << (uint(have) % 64)
			}
			if e.sigs[nd] != sig {
				t.Fatalf("step %d: node %d word %#x, held ids give %#x (%v)", step, nd, e.sigs[nd], sig, tab.ids)
			}
			// Every id of the space, held or not: a false negative (or a
			// positive the table does not back) shows here.
			for id := data.ItemID(0); id < 256; id++ {
				got, ok := e.getItem(nd, id)
				want, had := model[nd][id]
				if ok != had || got != want {
					t.Fatalf("step %d: getItem(%d, %d) = %p, %v; model %p, %v", step, nd, id, got, ok, want, had)
				}
			}
		}
	}
	if maxLen < 30 {
		t.Fatalf("tables only reached %d entries; the stream no longer exercises large tables", maxLen)
	}
}

// TestItemStateIsPacked pins the packed layout: a 10k-node run holds about
// 100 000 item states, 40 bytes each (96 while they held the relay-only
// fields, a pointer and eight bools).
func TestItemStateIsPacked(t *testing.T) {
	if got := unsafe.Sizeof(itemState{}); got > 40 {
		t.Fatalf("itemState is %d bytes, want <= 40", got)
	}
}

// TestItemStateHasNoPointer pins that item states hold no pointer, so the
// pool blocks they are carved from are never scanned by the collector. It
// walks the fields, so a pointer added later, at any depth, fails it.
func TestItemStateHasNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: item states must hold no pointer", path, typ.Kind())
		}
	}
	walk("itemState", reflect.TypeOf(itemState{}))
}

// TestItemIDBeyondInt32Misses: the table holds ids in four bytes, so an id
// a malformed frame carries beyond int32 must miss rather than alias the
// held id it wraps to.
func TestItemIDBeyondInt32Misses(t *testing.T) {
	e := &Engine{peers: []peerState{{}}, sigs: make([]uint64, 1)}
	e.putItem(0, 5, &itemState{})
	if _, ok := e.getItem(0, 5+1<<32); ok {
		t.Fatal("id 5+2^32 found id 5's state")
	}
}

// TestItemSignatureKeepsCollidingBit pins the del case a cleared bit would
// get wrong: two held ids share a residue and one of them goes.
func TestItemSignatureKeepsCollidingBit(t *testing.T) {
	e := &Engine{peers: []peerState{{}}, sigs: make([]uint64, 1)}
	a, b := &itemState{}, &itemState{}
	e.putItem(0, 5, a)
	e.putItem(0, 5+64, b)
	if _, ok := e.delItem(0, 5); !ok {
		t.Fatal("delItem(5) missed")
	}
	if got, ok := e.getItem(0, 5+64); !ok || got != b {
		t.Fatalf("getItem(69) after deleting its colliding twin = %p, %v", got, ok)
	}
	if _, ok := e.getItem(0, 5); ok {
		t.Fatal("deleted id still found")
	}
	if _, ok := e.delItem(0, 5+64); !ok || e.sigs[0] != 0 {
		t.Fatalf("word after deleting both = %#x", e.sigs[0])
	}
}

// TestCrashMakesFloodsMissUntilRewarmed is the engine-level view of the
// crash reset: a crashed node answers POLL and INVALIDATION as "not mine"
// (and grows no state from them) until it caches the item again.
func TestCrashMakesFloodsMissUntilRewarmed(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	m, _ := e.reg.Master(0)
	seed := func() {
		t.Helper()
		e.eng.Warm(e.k, 1, m.Current())
		if err := e.eng.SeedRelay(e.k, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	inv := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: m.Current().Version}
	poll := protocol.Message{Kind: protocol.KindPoll, Item: 0, Origin: 2, Version: m.Current().Version, Seq: 1}
	acks := func() uint64 { return e.net.Traffic().Originated(protocol.KindPollAckA) }

	seed()
	if err := e.eng.Crash(e.k, 1); err != nil {
		t.Fatal(err)
	}
	if e.eng.sigs[1] != 0 || len(e.eng.peers[1].items.ids) != 0 {
		t.Fatalf("crash left word %#x, table %v", e.eng.sigs[1], e.eng.peers[1].items.ids)
	}
	e.eng.onInvalidation(e.k, 1, inv)
	e.eng.onPoll(e.k, 1, poll)
	if e.eng.Role(1, 0) != RoleNone || acks() != 0 {
		t.Fatalf("crashed node reacted to floods: role %v, %d acks", e.eng.Role(1, 0), acks())
	}

	seed()
	e.eng.onInvalidation(e.k, 1, inv)
	e.eng.onPoll(e.k, 1, poll)
	if st, ok := e.eng.getItem(1, 0); !ok || !st.is(invHeard) {
		t.Fatal("re-warmed node did not take the INVALIDATION")
	}
	if acks() != 1 {
		t.Fatalf("re-warmed relay sent %d POLL_ACK_A, want 1", acks())
	}
}

// TestRepairSpanClosedWhenRelayStateGoes: a relay whose state is removed
// mid-repair — evicted by an insertion, or wiped by a crash — must close
// its GET_NEW span, or the collector exports it unfinished.
func TestRepairSpanClosedWhenRelayStateGoes(t *testing.T) {
	teardowns := map[string]func(t *testing.T, e *env){
		"evict": func(t *testing.T, e *env) {
			m2, _ := e.reg.Master(2)
			e.eng.putCopy(e.k, 1, m2.Current()) // capacity 1: item 0 goes
		},
		"crash": func(t *testing.T, e *env) {
			if err := e.eng.Crash(e.k, 1); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, teardown := range teardowns {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DemoteAfter = 1000 // idle chain: keep the relay from resigning first
			e := newEnv(t, 3, cfg)
			col := ctrace.NewCollector(0)
			e.ch.Tracer = col
			swapStore(t, e, 1, cache.PolicyLRU)
			e.seedCache(t, 1, 0)
			if err := e.eng.SeedRelay(e.k, 1, 0); err != nil {
				t.Fatal(err)
			}
			// An announcement ahead of the master: the owner's SEND_NEW can
			// never cover it, so the repair round stays open.
			now := e.k.Now().Nanoseconds()
			root := col.StartTrace(now, 0, ctrace.PhaseInvalidate, "INVALIDATION")
			col.Finish(root, now)
			e.eng.onInvalidation(e.k, 1, protocol.Message{
				Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 7, Trace: root,
			})
			e.k.RunUntil(e.k.Now() + 5*time.Second)
			st, _ := e.eng.getItem(1, 0)
			if st == nil || !st.is(getNewPending) || e.eng.peekWork(st).repairTC.TraceID == 0 {
				t.Fatal("setup: relay is not mid-repair with an open span")
			}

			teardown(t, e)

			if e.eng.Role(1, 0) != RoleNone {
				t.Fatalf("item state survived the teardown (role %v)", e.eng.Role(1, 0))
			}
			if st.work != 0 {
				t.Error("removed state still names a relay record")
			}
			repairs := 0
			for _, s := range col.Export() {
				if s.Phase != ctrace.PhaseRepair {
					continue
				}
				repairs++
				// Open spans export with EndNs == StartNs; five simulated
				// seconds have passed since this one started.
				if s.EndNs != e.k.Now().Nanoseconds() {
					t.Errorf("repair span [%d, %d] not closed at teardown time %d", s.StartNs, s.EndNs, e.k.Now().Nanoseconds())
				}
			}
			if repairs != 1 {
				t.Fatalf("%d repair spans recorded, want 1", repairs)
			}
		})
	}
}

// TestRoleChangeUntracedAllocFreeTracedRecorded: with a hub but no
// collector a role transition is a memoised counter bump and nothing
// else; with a collector it is one instantaneous role root at the node,
// named from>to:reason, carrying the item and the election coefficients.
func TestRoleChangeUntracedAllocFreeTracedRecorded(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.ch.Hub = telemetry.NewHub(telemetry.LevelMetrics)
	e.eng.roleChanged(e.k, 1, 2, RoleCache, RoleCandidate, "eligible")
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			e.eng.roleChanged(e.k, 1, 2, RoleCache, RoleCandidate, "eligible")
		}
	}); total != 0 {
		t.Errorf("100 untraced role transitions allocate %.0f objects, want 0", total)
	}

	e.ch.Tracer = ctrace.NewCollector(0)
	e.eng.roleChanged(e.k, 1, 2, RoleCandidate, RoleRelay, "apply-ack")
	spans := e.ch.Tracer.Export()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want the one role root", len(spans))
	}
	s, tr := spans[0], e.eng.trackers[1]
	if s.Parent != 0 || s.Phase != ctrace.PhaseRole || s.Name != "candidate>relay:apply-ack" ||
		s.Node != 1 || s.StartNs != s.EndNs || s.StartNs != e.k.Now().Nanoseconds() {
		t.Errorf("role root = %+v", s)
	}
	if want := (ctrace.Annot{Item: 2, CAR: tr.CAR(), CS: tr.CS(), CE: tr.CE()}); s.Annot == nil || *s.Annot != want {
		t.Errorf("role root annotation = %+v, want %+v", s.Annot, want)
	}
	if got := e.ch.Hub.Snapshot().CounterValue("rpcc_role_transitions_total",
		telemetry.Label{Key: "from", Value: "candidate"}, telemetry.Label{Key: "to", Value: "relay"},
		telemetry.Label{Key: "reason", Value: "apply-ack"}); got != 1 {
		t.Errorf("traced transition counted %g times, want 1", got)
	}
}
