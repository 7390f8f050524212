package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// This file is the reference model for the dense store: the map-backed
// store and its four hook-driven replacement policies as they stood before
// replacement became a rank over the entry array, kept verbatim apart from
// the ref- names. TestDenseStoreMatchesReferenceModel drives both through
// the same operations and demands the same observable behaviour.

// refMeta is what a reference policy may know about a cached entry.
type refMeta struct {
	StoredAt time.Duration
	Version  data.Version
	Size     int
	Hops     int
}

// refPolicy is the pre-rank policy interface: Admit when an entry is
// inserted, Touch on every access or refresh, Victim when space is needed,
// Remove when an entry leaves for any reason.
type refPolicy interface {
	Name() string
	Admit(id data.ItemID, m refMeta)
	Touch(id data.ItemID, m refMeta)
	Victim() (data.ItemID, bool)
	Remove(id data.ItemID)
}

func newRefPolicy(kind PolicyKind, p PolicyParams) refPolicy {
	switch kind {
	case PolicyLFU:
		period := p.AgePeriod
		if period == 0 {
			period = DefaultLFUAgePeriod
		}
		return newLFUPolicy(uint64(period))
	case PolicyTTL:
		ttl := p.TTL
		if ttl == 0 {
			ttl = DefaultPolicyTTL
		}
		return newTTLPolicy(ttl)
	case PolicyUtility:
		return newUtilityPolicy()
	default:
		return newLRUPolicy()
	}
}

type refStore struct {
	capacity int
	policy   refPolicy
	byID     map[data.ItemID]*refEntry
	hops     func(data.ItemID) int
	accesses uint64
	hits     uint64
	evicts   uint64
}

type refEntry struct {
	copy     data.Copy
	storedAt time.Duration
	hops     int
}

func newRefStore(capacity int, p refPolicy) *refStore {
	return &refStore{capacity: capacity, policy: p, byID: make(map[data.ItemID]*refEntry, capacity)}
}

func (s *refStore) hopsFor(id data.ItemID) int {
	if s.hops == nil {
		return 0
	}
	return s.hops(id)
}

func (s *refStore) metaOf(e *refEntry) refMeta {
	return refMeta{StoredAt: e.storedAt, Version: e.copy.Version, Size: len(e.copy.Value), Hops: e.hops}
}

func (s *refStore) Get(id data.ItemID) (data.Copy, bool) {
	s.accesses++
	e, ok := s.byID[id]
	if !ok {
		return data.Copy{}, false
	}
	s.hits++
	s.policy.Touch(id, s.metaOf(e))
	return e.copy, true
}

func (s *refStore) PutEvict(c data.Copy, now time.Duration) (evicted data.ItemID, hasEvicted bool, err error) {
	if c.ID < 0 {
		return 0, false, fmt.Errorf("cache: negative item id %v", c.ID)
	}
	if !c.Consistent() {
		return 0, false, fmt.Errorf("cache: refusing torn copy %v v%d", c.ID, c.Version)
	}
	if e, ok := s.byID[c.ID]; ok {
		if c.Version < e.copy.Version {
			return 0, false, fmt.Errorf("cache: version regression for %v: have v%d, put v%d",
				c.ID, e.copy.Version, c.Version)
		}
		if c.Version > e.copy.Version {
			e.storedAt = now
			e.hops = s.hopsFor(c.ID)
		}
		e.copy = c
		s.policy.Touch(c.ID, s.metaOf(e))
		return 0, false, nil
	}
	if len(s.byID) >= s.capacity {
		victim, ok := s.policy.Victim()
		if !ok || s.byID[victim] == nil {
			for id := range s.byID {
				if !ok || id < victim {
					victim, ok = id, true
				}
			}
		}
		s.policy.Remove(victim)
		delete(s.byID, victim)
		evicted, hasEvicted = victim, true
		s.evicts++
	}
	e := &refEntry{copy: c, storedAt: now, hops: s.hopsFor(c.ID)}
	s.byID[c.ID] = e
	s.policy.Admit(c.ID, s.metaOf(e))
	return evicted, hasEvicted, nil
}

func (s *refStore) Remove(id data.ItemID) bool {
	if _, ok := s.byID[id]; !ok {
		return false
	}
	s.policy.Remove(id)
	delete(s.byID, id)
	return true
}

func (s *refStore) Clear() {
	for _, id := range s.Items() {
		s.policy.Remove(id)
		delete(s.byID, id)
	}
}

func (s *refStore) Items() []data.ItemID {
	out := make([]data.ItemID, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lruPolicy evicts the least recently used entry. Admit pushes to the
// front, Touch refreshes recency, Victim is the back of the list.
type lruPolicy struct {
	order *list.List // front = most recently used; values are data.ItemID
	byID  map[data.ItemID]*list.Element
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{order: list.New(), byID: make(map[data.ItemID]*list.Element)}
}

func (p *lruPolicy) Name() string { return string(PolicyLRU) }

func (p *lruPolicy) Admit(id data.ItemID, _ refMeta) {
	if el, ok := p.byID[id]; ok {
		p.order.MoveToFront(el)
		return
	}
	p.byID[id] = p.order.PushFront(id)
}

func (p *lruPolicy) Touch(id data.ItemID, _ refMeta) {
	if el, ok := p.byID[id]; ok {
		p.order.MoveToFront(el)
	}
}

func (p *lruPolicy) Victim() (data.ItemID, bool) {
	back := p.order.Back()
	if back == nil {
		return 0, false
	}
	return back.Value.(data.ItemID), true
}

func (p *lruPolicy) Remove(id data.ItemID) {
	if el, ok := p.byID[id]; ok {
		p.order.Remove(el)
		delete(p.byID, id)
	}
}

// lfuPolicy evicts the least frequently used entry; every agePeriod
// Admit/Touch events all counts are halved. Ties break toward the older
// admission, then the lower item id.
type lfuPolicy struct {
	entries   map[data.ItemID]*lfuEntry
	tick      uint64 // logical clock: one per Admit/Touch
	agePeriod uint64
}

type lfuEntry struct {
	count uint64
	seq   uint64 // admission tick, for tie-breaking
}

func newLFUPolicy(agePeriod uint64) *lfuPolicy {
	return &lfuPolicy{entries: make(map[data.ItemID]*lfuEntry), agePeriod: agePeriod}
}

func (p *lfuPolicy) Name() string { return string(PolicyLFU) }

func (p *lfuPolicy) advance() {
	p.tick++
	if p.agePeriod > 0 && p.tick%p.agePeriod == 0 {
		for _, e := range p.entries {
			e.count /= 2
		}
	}
}

func (p *lfuPolicy) Admit(id data.ItemID, _ refMeta) {
	p.advance()
	if e, ok := p.entries[id]; ok {
		e.count++
		return
	}
	p.entries[id] = &lfuEntry{count: 1, seq: p.tick}
}

func (p *lfuPolicy) Touch(id data.ItemID, _ refMeta) {
	p.advance()
	if e, ok := p.entries[id]; ok {
		e.count++
	}
}

func (p *lfuPolicy) Victim() (data.ItemID, bool) {
	if len(p.entries) == 0 {
		return 0, false
	}
	ids := make([]data.ItemID, 0, len(p.entries))
	for id := range p.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	victim := ids[0]
	best := p.entries[victim]
	for _, id := range ids[1:] {
		e := p.entries[id]
		if e.count < best.count || (e.count == best.count && e.seq < best.seq) {
			victim, best = id, e
		}
	}
	return victim, true
}

func (p *lfuPolicy) Remove(id data.ItemID) { delete(p.entries, id) }

// ttlPolicy evicts the entry closest to staleness: the minimum
// storedAt + TTL.
type ttlPolicy struct {
	ttl    time.Duration
	expiry map[data.ItemID]time.Duration // storedAt + ttl
}

func newTTLPolicy(ttl time.Duration) *ttlPolicy {
	return &ttlPolicy{ttl: ttl, expiry: make(map[data.ItemID]time.Duration)}
}

func (p *ttlPolicy) Name() string { return string(PolicyTTL) }

func (p *ttlPolicy) Admit(id data.ItemID, m refMeta) { p.expiry[id] = m.StoredAt + p.ttl }

func (p *ttlPolicy) Touch(id data.ItemID, m refMeta) {
	if _, ok := p.expiry[id]; ok {
		p.expiry[id] = m.StoredAt + p.ttl
	}
}

func (p *ttlPolicy) Victim() (data.ItemID, bool) {
	if len(p.expiry) == 0 {
		return 0, false
	}
	ids := make([]data.ItemID, 0, len(p.expiry))
	for id := range p.expiry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	victim := ids[0]
	for _, id := range ids[1:] {
		if p.expiry[id] < p.expiry[victim] {
			victim = id
		}
	}
	return victim, true
}

func (p *ttlPolicy) Remove(id data.ItemID) { delete(p.expiry, id) }

// utilityPolicy evicts the minimum of
// (accesses / residency) * (hops + 1) / size, residency on a logical clock
// of one tick per Admit/Touch. Ties break toward the lower item id.
type utilityPolicy struct {
	entries map[data.ItemID]*utilEntry
	tick    uint64
}

type utilEntry struct {
	count    uint64 // accesses since admission (admission counts as one)
	admitted uint64 // tick at admission
	size     int
	hops     int
}

func newUtilityPolicy() *utilityPolicy {
	return &utilityPolicy{entries: make(map[data.ItemID]*utilEntry)}
}

func (p *utilityPolicy) Name() string { return string(PolicyUtility) }

func (p *utilityPolicy) Admit(id data.ItemID, m refMeta) {
	p.tick++
	if e, ok := p.entries[id]; ok {
		e.count++
		e.size, e.hops = m.Size, m.Hops
		return
	}
	p.entries[id] = &utilEntry{count: 1, admitted: p.tick, size: m.Size, hops: m.Hops}
}

func (p *utilityPolicy) Touch(id data.ItemID, m refMeta) {
	p.tick++
	if e, ok := p.entries[id]; ok {
		e.count++
		e.size, e.hops = m.Size, m.Hops
	}
}

func (p *utilityPolicy) utility(e *utilEntry) float64 {
	residency := p.tick - e.admitted + 1
	size := e.size
	if size < defaultUtilityMinSize {
		size = defaultUtilityMinSize
	}
	rate := float64(e.count) / float64(residency)
	return rate * float64(e.hops+1) / float64(size)
}

func (p *utilityPolicy) Victim() (data.ItemID, bool) {
	if len(p.entries) == 0 {
		return 0, false
	}
	ids := make([]data.ItemID, 0, len(p.entries))
	for id := range p.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	victim := ids[0]
	best := p.utility(p.entries[victim])
	for _, id := range ids[1:] {
		if u := p.utility(p.entries[id]); u < best {
			victim, best = id, u
		}
	}
	return victim, true
}

func (p *utilityPolicy) Remove(id data.ItemID) { delete(p.entries, id) }

// TestDenseStoreMatchesReferenceModel drives the dense store and the
// reference model through the same seeded 5 000-step sequences of Get,
// Put, PutEvict, Remove and Clear — versions advancing, repeating and
// regressing, fetch times colliding so TTL ties occur, a hop hint so
// utility weighs distance, a short LFU age period so halving happens —
// and demands identical results, victims and Items() after every step.
func TestDenseStoreMatchesReferenceModel(t *testing.T) {
	hops := func(id data.ItemID) int { return int(id) % 5 }
	for _, kind := range AllPolicyKinds() {
		for _, capacity := range []int{1, 5, 10, 25} {
			t.Run(fmt.Sprintf("%s/cap%d", kind, capacity), func(t *testing.T) {
				params := PolicyParams{AgePeriod: 16}
				pol, err := NewPolicy(kind, params)
				if err != nil {
					t.Fatal(err)
				}
				stores, err := NewStores(1, capacity, pol)
				if err != nil {
					t.Fatal(err)
				}
				got, want := stores[0], newRefStore(capacity, newRefPolicy(kind, params))
				got.SetHopsHint(hops)
				want.hops = hops

				rng := rand.New(rand.NewSource(int64(capacity) + 1))
				universe := 2*capacity + 3
				versions := make([]data.Version, universe)
				var victims, wantVictims []data.ItemID
				for step := 0; step < 5000; step++ {
					id := data.ItemID(rng.Intn(universe))
					now := time.Duration(step/4) * time.Second
					v := versions[id]
					switch op := rng.Intn(20); {
					case op < 8:
						c1, ok1 := got.Get(id)
						c2, ok2 := want.Get(id)
						if c1 != c2 || ok1 != ok2 {
							t.Fatalf("step %d: Get(%d) = %v,%v; model %v,%v", step, id, c1, ok1, c2, ok2)
						}
					case op < 17:
						switch rng.Intn(3) {
						case 0:
							v++
							versions[id] = v
						case 1:
							if v > 0 {
								v-- // a regression whenever the copy is held at v
							}
						}
						c := copyOf(id, v)
						ev1, has1, err1 := got.PutEvict(c, now)
						ev2, has2, err2 := want.PutEvict(c, now)
						if ev1 != ev2 || has1 != has2 || (err1 == nil) != (err2 == nil) {
							t.Fatalf("step %d: PutEvict(%d v%d) = %v,%v,%v; model %v,%v,%v",
								step, id, v, ev1, has1, err1, ev2, has2, err2)
						}
						if has1 {
							victims, wantVictims = append(victims, ev1), append(wantVictims, ev2)
						}
					case op < 19:
						if a, b := got.Remove(id), want.Remove(id); a != b {
							t.Fatalf("step %d: Remove(%d) = %v; model %v", step, id, a, b)
						}
					default:
						if rng.Intn(10) == 0 {
							got.Clear()
							want.Clear()
						}
					}
					if a, b := got.Items(), want.Items(); !slices.Equal(a, b) {
						t.Fatalf("step %d: Items = %v; model %v", step, a, b)
					}
				}
				if !slices.Equal(victims, wantVictims) {
					t.Fatalf("victim sequences differ")
				}
				if len(victims) == 0 {
					t.Fatal("no evictions: the comparison is vacuous")
				}
				if got.Accesses() != want.accesses || got.Hits() != want.hits || got.Evictions() != want.evicts {
					t.Fatalf("counters: accesses %d/%d hits %d/%d evictions %d/%d",
						got.Accesses(), want.accesses, got.Hits(), want.hits, got.Evictions(), want.evicts)
				}
				for _, id := range got.Items() {
					a, _ := got.StoredAt(id)
					if b := want.byID[id].storedAt; a != b {
						t.Fatalf("StoredAt(%d) = %v; model %v", id, a, b)
					}
				}
			})
		}
	}
}

// TestStoreSteadyStateDoesNotAllocate: a hit, a same-version refresh and
// an evicting insert — the operations a warmed cache performs — allocate
// nothing under any policy.
func TestStoreSteadyStateDoesNotAllocate(t *testing.T) {
	const capacity, universe = 10, 40
	copies := make([]data.Copy, universe)
	for i := range copies {
		copies[i] = copyOf(data.ItemID(i), 0)
	}
	for _, kind := range AllPolicyKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeWith(t, capacity, kind)
			for i := 0; i < capacity; i++ {
				if err := s.Put(copies[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			held, next := 0, capacity
			total := testing.AllocsPerRun(1, func() {
				for range 200 {
					for !s.Contains(data.ItemID(held % universe)) {
						held++
					}
					s.Get(data.ItemID(held % universe))
					_ = s.Put(copies[held%universe], time.Second)
					for s.Contains(data.ItemID(next % universe)) {
						next++
					}
					if _, has, err := s.PutEvict(copies[next%universe], time.Second); err != nil || !has {
						t.Fatalf("PutEvict: has=%v err=%v", has, err)
					}
				}
			})
			if total != 0 {
				t.Fatalf("%s: 200 hit+refresh+eviction rounds allocate %.0f objects, want 0", kind, total)
			}
		})
	}
}
