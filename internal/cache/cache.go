// Package cache implements the per-node cooperative cache store: a bounded
// store of data-item copies (capacity C_Num in the paper's Table 1) with
// the access accounting the relay-peer selection criterion needs (N_a, the
// number of cache accesses per period, feeding the peer access rate of
// Eq 4.2.1).
//
// Replacement is pluggable: a Policy (LRU by default; see policy.go)
// decides which entry to sacrifice when the store is full. The store owns
// the entries and the protocol-facing invariants — version monotonicity,
// torn-copy rejection, capacity — and drives the policy through its
// Admit/Touch/Victim/Remove hooks.
//
// Placement is query-driven ("cache what you fetched"), and discovery —
// locating a nearby copy on a miss — is performed by the protocol layers
// with expanding-ring DATA_REQUEST floods. The paper assumes both exist as
// an "independent mechanism" (§3); this package provides the store those
// mechanisms populate.
package cache

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Store is one node's cache. The zero value is unusable; use NewStore.
// Store is not safe for concurrent use: it lives inside the single-threaded
// simulation loop.
type Store struct {
	capacity int
	policy   Policy
	byID     map[data.ItemID]*entry
	// hops, when set, estimates the distance in hops to an item's source
	// host; the store snapshots it into entry metadata on every Put so
	// utility policies can weight re-fetch cost.
	hops     func(data.ItemID) int
	accesses uint64 // cumulative: hits + misses observed by this node
	hits     uint64
	puts     uint64
	evicts   uint64
}

// entry is one cached copy plus bookkeeping.
type entry struct {
	copy     data.Copy
	storedAt time.Duration
	hops     int
}

// NewStore creates a cache holding at most capacity items, replaced LRU —
// the default policy, byte-identical to the store before replacement
// became pluggable.
func NewStore(capacity int) (*Store, error) {
	return NewStoreWithPolicy(capacity, newLRUPolicy())
}

// NewStoreWithPolicy creates a cache with an explicit replacement policy.
// The policy instance must be exclusive to this store.
func NewStoreWithPolicy(capacity int, p Policy) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be > 0", capacity)
	}
	if p == nil {
		return nil, fmt.Errorf("cache: nil replacement policy")
	}
	return &Store{
		capacity: capacity,
		policy:   p,
		byID:     make(map[data.ItemID]*entry, capacity),
	}, nil
}

// Capacity returns the configured maximum item count.
func (s *Store) Capacity() int { return s.capacity }

// Len returns the current item count.
func (s *Store) Len() int { return len(s.byID) }

// SetHopsHint installs an estimator of the hop distance from this node to
// an item's source host. Optional: without it entry metadata carries zero
// hops and the utility policy degrades to access-rate/size. The estimator
// must be deterministic for a given sim state.
func (s *Store) SetHopsHint(f func(data.ItemID) int) { s.hops = f }

func (s *Store) hopsFor(id data.ItemID) int {
	if s.hops == nil {
		return 0
	}
	return s.hops(id)
}

func (s *Store) metaOf(e *entry) Meta {
	return Meta{
		StoredAt: e.storedAt,
		Version:  e.copy.Version,
		Size:     len(e.copy.Value),
		Hops:     e.hops,
	}
}

// Get returns the cached copy of id and whether it was present, counting
// the access (hit or miss) for the PAR statistic and touching the
// replacement policy.
func (s *Store) Get(id data.ItemID) (data.Copy, bool) {
	s.accesses++
	e, ok := s.byID[id]
	if !ok {
		return data.Copy{}, false
	}
	s.hits++
	s.policy.Touch(id, s.metaOf(e))
	return e.copy, true
}

// Peek returns the cached copy without counting an access or touching the
// replacement policy — for protocol-internal inspection (e.g. a relay
// peer answering a POLL examines its copy without that counting as local
// demand).
func (s *Store) Peek(id data.ItemID) (data.Copy, bool) {
	e, ok := s.byID[id]
	if !ok {
		return data.Copy{}, false
	}
	return e.copy, true
}

// Put inserts or refreshes a copy, evicting the policy's victim when
// full. Putting an older version over a newer one is rejected: caches
// must never regress (protocols can only move copies forward).
func (s *Store) Put(c data.Copy, now time.Duration) error {
	_, _, err := s.PutEvict(c, now)
	return err
}

// PutEvict is Put that additionally reports which item, if any, was
// evicted to make room. Protocol layers need this to tear down per-item
// roles (e.g. a relay peer whose copy is evicted must CANCEL with the
// source host).
func (s *Store) PutEvict(c data.Copy, now time.Duration) (evicted data.ItemID, hasEvicted bool, err error) {
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
		// Freshness advances only with content: a same-version re-Put
		// must not make the copy look freshly fetched, or TTL-aware
		// eviction and staleness-at-delivery spans measure garbage.
		if c.Version > e.copy.Version {
			e.storedAt = now
			e.hops = s.hopsFor(c.ID)
		}
		e.copy = c
		s.policy.Touch(c.ID, s.metaOf(e))
		s.puts++
		return 0, false, nil
	}
	if len(s.byID) >= s.capacity {
		victim, ok := s.policy.Victim()
		if !ok || s.byID[victim] == nil {
			// Defensive: a policy that lost track of its entries must
			// not let the store overflow. Fall back to the lowest id.
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
	e := &entry{copy: c, storedAt: now, hops: s.hopsFor(c.ID)}
	s.byID[c.ID] = e
	s.policy.Admit(c.ID, s.metaOf(e))
	s.puts++
	return evicted, hasEvicted, nil
}

// Remove drops id from the cache (e.g. on invalidation without refresh),
// reporting whether it was present.
func (s *Store) Remove(id data.ItemID) bool {
	if _, ok := s.byID[id]; !ok {
		return false
	}
	s.policy.Remove(id)
	delete(s.byID, id)
	return true
}

// Clear wipes every cached copy — the cache side of a node crash. The
// cumulative counters (accesses, hits, evictions) survive: they are
// measurements of what happened, not state the node holds. Entries leave
// the policy in ascending id order so policy state stays deterministic.
func (s *Store) Clear() {
	for _, id := range s.Items() {
		s.policy.Remove(id)
		delete(s.byID, id)
	}
}

// Contains reports whether id is cached, without touching the policy.
func (s *Store) Contains(id data.ItemID) bool {
	_, ok := s.byID[id]
	return ok
}

// StoredAt returns when the cached copy of id was written into this store
// (the fetch time of its current version; same-version re-Puts do not
// advance it).
func (s *Store) StoredAt(id data.ItemID) (time.Duration, bool) {
	e, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	return e.storedAt, true
}

// Items returns the cached item ids sorted ascending (stable for tests and
// iteration determinism).
func (s *Store) Items() []data.ItemID {
	out := make([]data.ItemID, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Accesses returns the cumulative access count (the basis for the paper's
// N_a; the coefficient tracker differences it per period φ).
func (s *Store) Accesses() uint64 { return s.accesses }

// Hits returns the cumulative hit count.
func (s *Store) Hits() uint64 { return s.hits }

// HitRatio returns hits/accesses, or zero before any access.
func (s *Store) HitRatio() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.accesses)
}

// Evictions returns how many entries replacement pressure has dropped.
func (s *Store) Evictions() uint64 { return s.evicts }
