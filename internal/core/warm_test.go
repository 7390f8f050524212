package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/data"
)

// warmByPutCopy is the placement Warm replaces: one putCopy per copy, in
// order.
func warmByPutCopy(e *env, host int, cs []data.Copy) {
	for _, c := range cs {
		e.eng.putCopy(e.k, host, c)
	}
}

// useStores gives every node of e a fresh store of the given capacity
// under policy kind, all carved from one array as a run carves them.
func useStores(t *testing.T, e *env, capacity int, kind cache.PolicyKind) {
	t.Helper()
	p, err := cache.NewPolicy(kind, cache.PolicyParams{AgePeriod: 3})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := cache.NewStores(len(e.stores), capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	copy(e.stores, stores)
	copy(e.ch.Stores, stores)
}

// sameWarmState reports the first way the two engines' placements differ
// at host: store contents and fetch times, item table, signature word,
// item state values and, when bases are given, the order the states were
// taken from the pool (their offsets from the bases).
func sameWarmState(a, b *env, host int, baseA, baseB uintptr) string {
	sa, sb := a.stores[host], b.stores[host]
	if !slices.Equal(sa.Items(), sb.Items()) {
		return "store items differ"
	}
	for _, id := range sa.Items() {
		ta, _ := sa.StoredAt(id)
		tb, _ := sb.StoredAt(id)
		ca, _ := sa.Peek(id)
		cb, _ := sb.Peek(id)
		if ta != tb || ca != cb {
			return "store entries differ"
		}
	}
	ia, ib := &a.eng.peers[host].items, &b.eng.peers[host].items
	if !slices.Equal(ia.ids, ib.ids) {
		return "item tables differ"
	}
	if a.eng.sigs[host] != b.eng.sigs[host] {
		return "signature words differ"
	}
	for i := range ia.sts {
		if *ia.sts[i] != *ib.sts[i] {
			return "item states differ"
		}
		if baseA != 0 && uintptr(unsafe.Pointer(ia.sts[i]))-baseA != uintptr(unsafe.Pointer(ib.sts[i]))-baseB {
			return "item states taken from the pool in another order"
		}
	}
	return ""
}

// TestWarmBatchMatchesPutCopyLoop: Engine.Warm leaves stores, ticks, item
// tables, signature words and item states exactly as a putCopy per copy
// does, under every cache policy, for empty, partial, full and
// over-capacity batches, for a second batch onto a warmed host, and for a
// batch holding a torn copy — which both paths refuse.
func TestWarmBatchMatchesPutCopyLoop(t *testing.T) {
	const n, capacity = 16, 5
	for _, kind := range cache.AllPolicyKinds() {
		batch, ref := newEnv(t, n, DefaultConfig()), newEnv(t, n, DefaultConfig())
		useStores(t, batch, capacity, kind)
		useStores(t, ref, capacity, kind)
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 2; round++ {
			for host := 0; host < n; host++ {
				var cs []data.Copy
				for _, id := range rng.Perm(n)[:rng.Intn(capacity+3)] {
					m, _ := batch.reg.Master(data.ItemID(id))
					cs = append(cs, m.Current())
				}
				if host%7 == 3 && len(cs) > 0 {
					cs[0].Value = data.ValueFor(cs[0].ID, cs[0].Version+1) // torn
				}
				batch.eng.Warm(batch.k, host, cs...)
				warmByPutCopy(ref, host, cs)
				if host%7 == 3 && len(cs) > 0 {
					if batch.stores[host].Contains(cs[0].ID) && round == 0 {
						t.Fatalf("%s: host %d stored a torn copy", kind, host)
					}
					if _, ok := batch.eng.getItem(host, cs[0].ID); ok && round == 0 {
						t.Fatalf("%s: host %d holds state for a torn copy", kind, host)
					}
				}
			}
		}
		// Item states come from one reserved block, so each engine's
		// lowest state address is its first state.
		lowest := func(e *env) uintptr {
			low := ^uintptr(0)
			for nd := range e.eng.peers {
				for _, st := range e.eng.peers[nd].items.sts {
					low = min(low, uintptr(unsafe.Pointer(st)))
				}
			}
			return low
		}
		baseA, baseB := lowest(batch), lowest(ref)
		for host := 0; host < n; host++ {
			if diff := sameWarmState(batch, ref, host, baseA, baseB); diff != "" {
				t.Fatalf("%s: host %d: %s", kind, host, diff)
			}
		}
		// The stores' clocks and ranks agree too: the same later puts
		// evict the same items and leave the same tables. (States taken
		// past the reserved block come from blocks of their own, so their
		// offsets are not compared.)
		for step := 0; step < 200; step++ {
			host := rng.Intn(n)
			m, _ := batch.reg.Master(data.ItemID(rng.Intn(n)))
			batch.eng.putCopy(batch.k, host, m.Current())
			ref.eng.putCopy(ref.k, host, m.Current())
			if diff := sameWarmState(batch, ref, host, 0, 0); diff != "" {
				t.Fatalf("%s: step %d host %d: %s", kind, step, host, diff)
			}
		}
	}
}
