package cache

import (
	"math/rand"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

func storeWith(t *testing.T, capacity int, kind PolicyKind) *Store {
	t.Helper()
	p, err := NewPolicy(kind, PolicyParams{})
	if err != nil {
		t.Fatalf("NewPolicy(%q): %v", kind, err)
	}
	s, err := NewStores(1, capacity, p)
	if err != nil {
		t.Fatalf("NewStores: %v", err)
	}
	return s[0]
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy("fifo", PolicyParams{}); err == nil {
		t.Error("unknown policy kind accepted")
	}
	if _, err := NewPolicy(PolicyTTL, PolicyParams{TTL: -time.Second}); err == nil {
		t.Error("negative TTL accepted")
	}
	if _, err := NewPolicy(PolicyLFU, PolicyParams{AgePeriod: -1}); err == nil {
		t.Error("negative age period accepted")
	}
	if _, err := NewStores(2, 0, Policy{}); err == nil {
		t.Error("zero capacity accepted")
	}
	p, err := NewPolicy("", PolicyParams{})
	if err != nil {
		t.Fatalf("empty kind: %v", err)
	}
	if p != (Policy{}) {
		t.Errorf("empty kind resolved to %+v, want the zero policy (LRU)", p)
	}
	if PolicyKind("fifo").Valid() {
		t.Error("fifo reported valid")
	}
}

// TestLRUPolicyMatchesLegacyStore pins the extraction: the default-policy
// store must choose the exact victims the pre-policy LRU store did.
func TestLRUPolicyMatchesLegacyStore(t *testing.T) {
	s, _ := NewStore(2)
	s.Put(copyOf(1, 0), 0)
	s.Put(copyOf(2, 0), 0)
	s.Get(1) // 2 becomes LRU
	ev, has, err := s.PutEvict(copyOf(3, 0), 0)
	if err != nil || !has || ev != 2 {
		t.Fatalf("PutEvict = %v,%v,%v; want victim 2", ev, has, err)
	}
	s.Put(copyOf(1, 1), time.Second) // refresh touches recency: 3 is now LRU
	ev, has, _ = s.PutEvict(copyOf(4, 0), time.Second)
	if !has || ev != 3 {
		t.Fatalf("victim after refresh = %v,%v; want 3", ev, has)
	}
}

func TestLFUPolicyEvictsColdest(t *testing.T) {
	s := storeWith(t, 3, PolicyLFU)
	s.Put(copyOf(1, 0), 0)
	s.Put(copyOf(2, 0), 0)
	s.Put(copyOf(3, 0), 0)
	s.Get(1)
	s.Get(1)
	s.Get(3)
	ev, has, err := s.PutEvict(copyOf(4, 0), 0)
	if err != nil || !has || ev != 2 {
		t.Fatalf("LFU victim = %v,%v,%v; want 2 (never re-accessed)", ev, has, err)
	}
}

func TestLFUPolicyTieBreaksByAdmission(t *testing.T) {
	s := storeWith(t, 2, PolicyLFU)
	s.Put(copyOf(5, 0), 0)
	s.Put(copyOf(2, 0), 0)
	// Equal counts: the earlier admission (item 5) goes first.
	ev, has, _ := s.PutEvict(copyOf(7, 0), 0)
	if !has || ev != 5 {
		t.Fatalf("LFU tie victim = %v,%v; want 5 (oldest admission)", ev, has)
	}
}

func TestLFUAgingForgetsStalePopularity(t *testing.T) {
	p, _ := NewPolicy(PolicyLFU, PolicyParams{AgePeriod: 4})
	stores, _ := NewStores(1, 2, p)
	s := stores[0]
	s.Put(copyOf(1, 0), 0)
	s.Get(1)
	s.Get(1) // item 1: hot early (count 3)
	s.Put(copyOf(2, 0), 0)
	// Drive the clock: item 2 accumulates recent accesses while item 1's
	// early burst is halved away.
	for i := 0; i < 8; i++ {
		s.Get(2)
	}
	ev, has, _ := s.PutEvict(copyOf(3, 0), 0)
	if !has || ev != 1 {
		t.Fatalf("aged LFU victim = %v,%v; want 1 (stale popularity)", ev, has)
	}
}

func TestTTLPolicyEvictsClosestToStaleness(t *testing.T) {
	s := storeWith(t, 3, PolicyTTL)
	s.Put(copyOf(1, 0), 2*time.Minute)
	s.Put(copyOf(2, 0), 1*time.Minute) // oldest fetch = nearest expiry
	s.Put(copyOf(3, 0), 3*time.Minute)
	ev, has, err := s.PutEvict(copyOf(4, 0), 4*time.Minute)
	if err != nil || !has || ev != 2 {
		t.Fatalf("TTL victim = %v,%v,%v; want 2 (stalest)", ev, has, err)
	}
	// Recency must not disturb freshness ranking: touching the stalest
	// copy does not save it.
	s2 := storeWith(t, 2, PolicyTTL)
	s2.Put(copyOf(1, 0), time.Minute)
	s2.Put(copyOf(2, 0), 2*time.Minute)
	s2.Get(1)
	s2.Get(1)
	ev, has, _ = s2.PutEvict(copyOf(3, 0), 3*time.Minute)
	if !has || ev != 1 {
		t.Fatalf("TTL victim after touches = %v,%v; want 1", ev, has)
	}
}

// TestTTLPolicyHonorsStoredAtFix pins the interaction between the TTL
// policy and the storedAt fix: a same-version re-Put must not rejuvenate
// a copy's place in the eviction order.
func TestTTLPolicyHonorsStoredAtFix(t *testing.T) {
	s := storeWith(t, 2, PolicyTTL)
	s.Put(copyOf(1, 0), time.Minute)
	s.Put(copyOf(2, 0), 2*time.Minute)
	// Same-version re-Put of 1 much later: freshness must not advance.
	if err := s.Put(copyOf(1, 0), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	ev, has, _ := s.PutEvict(copyOf(3, 0), 11*time.Minute)
	if !has || ev != 1 {
		t.Fatalf("TTL victim = %v,%v; want 1 (re-Put must not refresh)", ev, has)
	}
}

func TestUtilityPolicyWeighsHops(t *testing.T) {
	s := storeWith(t, 2, PolicyUtility)
	hops := map[data.ItemID]int{1: 1, 2: 6, 3: 1}
	s.SetHopsHint(func(id data.ItemID) int { return hops[id] })
	s.Put(copyOf(1, 0), 0)
	s.Put(copyOf(2, 0), 0)
	// Same access pattern for both; item 2's source is far away, so its
	// copy is the more valuable one and item 1 goes.
	s.Get(1)
	s.Get(2)
	ev, has, err := s.PutEvict(copyOf(3, 0), 0)
	if err != nil || !has || ev != 1 {
		t.Fatalf("utility victim = %v,%v,%v; want 1 (near source)", ev, has, err)
	}
}

func TestUtilityPolicyWeighsAccessRate(t *testing.T) {
	s := storeWith(t, 2, PolicyUtility)
	s.Put(copyOf(1, 0), 0)
	s.Put(copyOf(2, 0), 0)
	s.Get(2)
	s.Get(2)
	s.Get(2)
	ev, has, _ := s.PutEvict(copyOf(3, 0), 0)
	if !has || ev != 1 {
		t.Fatalf("utility victim = %v,%v; want 1 (cold)", ev, has)
	}
}

// TestPolicyInvariantsProperty drives every policy through a randomized
// but seeded workload and asserts the store invariants the LRU baseline
// guarantees: capacity is never exceeded, version regressions are always
// rejected, eviction reports name a previously present item, and Len
// matches the tracked contents.
func TestPolicyInvariantsProperty(t *testing.T) {
	for _, kind := range AllPolicyKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			s := storeWith(t, 4, kind)
			versions := map[data.ItemID]data.Version{}
			present := map[data.ItemID]bool{}
			for step := 0; step < 5000; step++ {
				id := data.ItemID(rng.Intn(12))
				now := time.Duration(step) * time.Second
				switch rng.Intn(4) {
				case 0: // Put at the item's current or advanced version.
					v := versions[id]
					if rng.Intn(2) == 0 {
						v++
						versions[id] = v
					}
					ev, has, err := s.PutEvict(copyOf(id, v), now)
					if err != nil {
						t.Fatalf("step %d: PutEvict(%d v%d): %v", step, id, v, err)
					}
					if has {
						if !present[ev] {
							t.Fatalf("step %d: evicted %d which was not present", step, ev)
						}
						delete(present, ev)
					}
					present[id] = true
				case 1: // Version regression must be rejected.
					if v := versions[id]; v > 0 && present[id] {
						if err := s.Put(copyOf(id, v-1), now); err == nil {
							t.Fatalf("step %d: version regression accepted for %d", step, id)
						}
					}
				case 2:
					s.Get(id)
				case 3:
					if rng.Intn(10) == 0 {
						s.Remove(id)
						delete(present, id)
					} else {
						s.Peek(id)
					}
				}
				if s.Len() > s.Capacity() {
					t.Fatalf("step %d: Len %d exceeds capacity %d", step, s.Len(), s.Capacity())
				}
				if s.Len() != len(present) {
					t.Fatalf("step %d: Len %d != tracked %d", step, s.Len(), len(present))
				}
				for _, got := range s.Items() {
					if !present[got] {
						t.Fatalf("step %d: store holds %d which should be gone", step, got)
					}
				}
			}
			// Crash wipe leaves the policy consistent for reuse.
			s.Clear()
			if s.Len() != 0 {
				t.Fatalf("Len after Clear = %d", s.Len())
			}
			if err := s.Put(copyOf(1, 99), 0); err != nil {
				t.Fatalf("Put after Clear: %v", err)
			}
		})
	}
}

// TestPolicyDeterminism: identical operation sequences on two stores of
// the same policy produce identical victim sequences.
func TestPolicyDeterminism(t *testing.T) {
	for _, kind := range AllPolicyKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func() []data.ItemID {
				rng := rand.New(rand.NewSource(7))
				s := storeWith(t, 3, kind)
				var victims []data.ItemID
				for step := 0; step < 2000; step++ {
					id := data.ItemID(rng.Intn(9))
					now := time.Duration(step) * 250 * time.Millisecond
					if rng.Intn(3) == 0 {
						s.Get(id)
						continue
					}
					v := versions(s, id)
					ev, has, err := s.PutEvict(copyOf(id, v), now)
					if err != nil {
						t.Fatal(err)
					}
					if has {
						victims = append(victims, ev)
					}
				}
				return victims
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("victim counts differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("victim %d differs: %v vs %v", i, a[i], b[i])
				}
			}
			if len(a) == 0 {
				t.Fatal("workload produced no evictions; test is vacuous")
			}
		})
	}
}

// versions returns a Put-able version for id: the cached version if
// present (same-version refresh) else 0.
func versions(s *Store, id data.ItemID) data.Version {
	if c, ok := s.Peek(id); ok {
		return c.Version
	}
	return 0
}
