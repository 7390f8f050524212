package core

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
)

// swapStore replaces node nd's cache with a fresh capacity-1 store under
// the named replacement policy.
func swapStore(t *testing.T, e *env, nd int, kind cache.PolicyKind) {
	t.Helper()
	p, err := cache.NewPolicy(kind, cache.PolicyParams{})
	if err != nil {
		t.Fatal(err)
	}
	small, err := cache.NewStores(1, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	e.stores[nd] = small[0]
	e.ch.Stores[nd] = small[0]
}

// TestEvictionCancelsRelayRolePerPolicy: the eviction → relay CANCEL
// teardown is a store contract, not an LRU detail — whichever policy
// nominates the victim, the evicted relay must CANCEL with its source.
func TestEvictionCancelsRelayRolePerPolicy(t *testing.T) {
	for _, kind := range cache.AllPolicyKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			e := newEnv(t, 3, DefaultConfig())
			swapStore(t, e, 1, kind)
			e.seedCache(t, 1, 0)
			e.eng.itemState(1, 0).role = RoleRelay
			e.eng.peers[0].addRelay(1)
			// Caching another item evicts item 0 (capacity 1) under
			// every policy: it is the only resident entry.
			m2, _ := e.reg.Master(2)
			e.eng.putCopy(e.k, 1, m2.Current())
			if e.eng.Role(1, 0) != RoleNone {
				t.Fatalf("evicted item still has role %v", e.eng.Role(1, 0))
			}
			e.k.RunUntil(e.k.Now() + 2*time.Second)
			if e.eng.peers[0].hasRelay(1) {
				t.Error("owner kept relay whose copy was evicted")
			}
		})
	}
}

// TestStoreRefreshEvictionCancelsRelay pins the other insertion path: a
// refresh that has to insert (items-map/store desync after a mid-flight
// eviction) evicts through storeRefresh, which used to drop the victim's
// relay state on the floor instead of CANCELling.
func TestStoreRefreshEvictionCancelsRelay(t *testing.T) {
	for _, kind := range cache.AllPolicyKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			e := newEnv(t, 4, DefaultConfig())
			swapStore(t, e, 1, kind)
			e.seedCache(t, 1, 0)
			e.eng.itemState(1, 0).role = RoleRelay
			e.eng.peers[0].addRelay(1)
			// Refresh item 2, absent from the full store: inserting it
			// evicts item 0, whose relay role must still tear down.
			m2, _ := e.reg.Master(2)
			st2 := e.eng.itemState(1, 2)
			e.eng.storeRefresh(e.k, 1, m2.Current(), st2, true)
			if !e.stores[1].Contains(2) {
				t.Fatal("refresh did not install the new copy")
			}
			if e.eng.Role(1, 0) != RoleNone {
				t.Fatalf("evicted item still has role %v after storeRefresh", e.eng.Role(1, 0))
			}
			e.k.RunUntil(e.k.Now() + 2*time.Second)
			if e.eng.peers[0].hasRelay(1) {
				t.Error("owner kept relay whose copy storeRefresh evicted")
			}
		})
	}
}
