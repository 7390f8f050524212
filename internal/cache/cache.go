// Package cache implements the per-node cooperative cache store: a bounded
// store of data-item copies (capacity C_Num in the paper's Table 1) with
// the access accounting the relay-peer selection criterion needs (N_a, the
// number of cache accesses per period, feeding the peer access rate of
// Eq 4.2.1).
//
// A store is one id-sorted array of entries, allocated at capacity, and
// every store of a run is carved from one backing array (NewStores). Each
// entry carries the statistics the replacement policies rank by, so a
// policy (LRU by default; see policy.go) is just the rank the store
// minimises when it is full. The store owns the protocol-facing invariants
// — version monotonicity, torn-copy rejection, capacity.
//
// Placement is query-driven ("cache what you fetched"), and discovery —
// locating a nearby copy on a miss — is performed by the protocol layers
// with expanding-ring DATA_REQUEST floods. The paper assumes both exist as
// an "independent mechanism" (§3); this package provides the store those
// mechanisms populate.
package cache

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Store is one node's cache. The zero value is unusable; use NewStore or
// NewStores. Store is not safe for concurrent use: it lives inside the
// single-threaded simulation loop.
type Store struct {
	// entries holds the cached copies ascending by id; its capacity is
	// the store's, fixed at construction, so it never reallocates.
	entries []entry
	// run is what every store of one NewStores call shares, held once.
	run *storeRun
	// node is the store's index in its NewStores call, the node the hop
	// hint estimates from.
	node int32
	// tick is the logical clock the ranks read: one step per admission or
	// touch.
	tick     uint64
	accesses uint64 // cumulative: hits + misses observed by this node
	hits     uint64
	evicts   uint64
}

// storeRun is the run-wide part of a store: the replacement policy and
// the hop hint every store of one NewStores call shares.
type storeRun struct {
	policy Policy
	// hops, when set, estimates the distance in hops from a node to an
	// item's source host; a store snapshots it into the entry whenever
	// the version advances so utility ranking can weight re-fetch cost.
	hops func(node int, id data.ItemID) int
}

// entry is one cached copy plus what the replacement ranks read, packed
// into 64 bytes: a node holds ten. The copy is held field by field so its
// id can share a word with the hop estimate. A policy reads at most two
// ranks besides storedAt and hops (see Policy.below), so two words carry
// them: seen is LRU's tick of the latest admission or touch, and LFU's
// and utility's tick of admission — the store's policy is fixed, so the
// word means one thing per store.
type entry struct {
	// id is the copy's id; the store refuses ids beyond int32.
	id int32
	// hops is the hop estimate at the copy's version; an estimate beyond
	// int32, more hops than any graph of int32 node ids has, saturates.
	hops      int32
	version   data.Version
	value     string
	writtenAt time.Duration
	storedAt  time.Duration
	seen      uint64
	// uses counts the admission and every touch since; under LFU it is
	// halved every agePeriod ticks.
	uses uint64
}

// copy returns the cached copy e holds.
func (e *entry) copy() data.Copy {
	return data.Copy{ID: data.ItemID(e.id), Version: e.version, Value: e.value, WrittenAt: e.writtenAt}
}

// setCopy writes c's fields into e.
func (e *entry) setCopy(c data.Copy) {
	e.id, e.version, e.value, e.writtenAt = int32(c.ID), c.Version, c.Value, c.WrittenAt
}

// NewStore creates a cache holding at most capacity items, replaced LRU.
func NewStore(capacity int) (*Store, error) {
	s, err := NewStores(1, capacity, Policy{})
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// NewStores creates n caches of the given capacity under policy p, all
// carved from one entry array and sharing one record of p: four
// allocations however large n is.
func NewStores(n, capacity int, p Policy) ([]*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be > 0", capacity)
	}
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("cache: store count %d outside [0, MaxInt32]", n)
	}
	run := &storeRun{policy: p}
	backing := make([]entry, n*capacity)
	stores := make([]Store, n)
	out := make([]*Store, n)
	for i := range stores {
		lo := i * capacity
		stores[i] = Store{entries: backing[lo : lo : lo+capacity], run: run, node: int32(i)}
		out[i] = &stores[i]
	}
	return out, nil
}

// Capacity returns the configured maximum item count.
func (s *Store) Capacity() int { return cap(s.entries) }

// Len returns the current item count.
func (s *Store) Len() int { return len(s.entries) }

// SetHopsHint installs, for the stores one NewStores call made, an
// estimator of the hop distance from node — a store's index in that
// call's result — to an item's source host. The stores share it, so it
// is held once. Optional: without it entries carry zero hops and the
// utility policy degrades to access-rate/size. The estimator must be
// deterministic for a given sim state.
func SetHopsHint(stores []*Store, f func(node int, id data.ItemID) int) {
	for _, s := range stores {
		s.run.hops = f
	}
}

func (s *Store) hopsFor(id data.ItemID) int32 {
	if s.run.hops == nil {
		return 0
	}
	return int32(max(math.MinInt32, min(s.run.hops(int(s.node), id), math.MaxInt32)))
}

// find returns the position of id in the entries, or where it would be
// inserted.
func (s *Store) find(id data.ItemID) (int, bool) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if data.ItemID(s.entries[m].id) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.entries) && data.ItemID(s.entries[lo].id) == id
}

// advance steps the logical clock. Under LFU every agePeriod ticks all
// counts halve, so popularity decays with a half-life of one period.
func (s *Store) advance() {
	s.tick++
	if p := s.run.policy.agePeriod; p > 0 && s.tick%p == 0 {
		for i := range s.entries {
			s.entries[i].uses /= 2
		}
	}
}

// touch records an access or refresh of e.
func (s *Store) touch(e *entry) {
	s.advance()
	e.uses++
	if s.run.policy.rankByLastUse() {
		e.seen = s.tick
	}
}

// victim returns the position of the entry the policy ranks lowest. The
// scan runs in ascending id order and replaces only on a strict win, so
// ties go to the lower id.
func (s *Store) victim() int {
	v := 0
	for i := 1; i < len(s.entries); i++ {
		if s.run.policy.below(&s.entries[i], &s.entries[v], s.tick) {
			v = i
		}
	}
	return v
}

// Get returns the cached copy of id and whether it was present, counting
// the access (hit or miss) for the PAR statistic and touching the entry.
func (s *Store) Get(id data.ItemID) (data.Copy, bool) {
	s.accesses++
	i, ok := s.find(id)
	if !ok {
		return data.Copy{}, false
	}
	s.hits++
	e := &s.entries[i]
	s.touch(e)
	return e.copy(), true
}

// Peek returns the cached copy without counting an access or touching the
// entry — for protocol-internal inspection (e.g. a relay peer answering a
// POLL examines its copy without that counting as local demand).
func (s *Store) Peek(id data.ItemID) (data.Copy, bool) {
	if i, ok := s.find(id); ok {
		return s.entries[i].copy(), true
	}
	return data.Copy{}, false
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
	if c.ID > math.MaxInt32 {
		return 0, false, fmt.Errorf("cache: item id %v beyond int32", c.ID)
	}
	if !c.Consistent() {
		return 0, false, fmt.Errorf("cache: refusing torn copy %v v%d", c.ID, c.Version)
	}
	i, ok := s.find(c.ID)
	if ok {
		e := &s.entries[i]
		if c.Version < e.version {
			return 0, false, fmt.Errorf("cache: version regression for %v: have v%d, put v%d",
				c.ID, e.version, c.Version)
		}
		// Freshness advances only with content: a same-version re-Put
		// must not make the copy look freshly fetched, or TTL-aware
		// eviction and staleness-at-delivery spans measure garbage.
		if c.Version > e.version {
			e.storedAt = now
			e.hops = s.hopsFor(c.ID)
		}
		e.setCopy(c)
		s.touch(e)
		return 0, false, nil
	}
	if len(s.entries) == cap(s.entries) {
		v := s.victim()
		evicted, hasEvicted = data.ItemID(s.entries[v].id), true
		s.entries = slices.Delete(s.entries, v, v+1)
		s.evicts++
		if v < i {
			i--
		}
	}
	hops := s.hopsFor(c.ID)
	s.advance()
	s.entries = slices.Insert(s.entries, i, entry{
		id: int32(c.ID), hops: hops, version: c.Version, value: c.Value, writtenAt: c.WrittenAt,
		storedAt: now, seen: s.tick, uses: 1,
	})
	return evicted, hasEvicted, nil
}

// Warm writes a host's warm placement into an empty store in one pass.
// Each copy gets exactly the entry that putting the copies one at a time,
// in the order given, would leave: its admission tick, use count (after
// any LFU halvings the later admissions trigger), fetch time and hop
// estimate. It is written once, at its rank in the batch: a placement
// holds about ten copies, so counting the smaller ids beats sorting the
// entries. Every copy must be proven canonical by reg
// (Registry.Canonical). Warm reports false and changes nothing when the
// store is not empty, the copies do not fit, an id repeats or is
// negative or beyond int32, or a copy is not canonical; the caller then
// puts the copies one at a time, which refuses whichever of them Put
// refuses.
func (s *Store) Warm(cs []data.Copy, now time.Duration, reg *data.Registry) bool {
	if len(s.entries) != 0 || len(cs) > cap(s.entries) {
		return false
	}
	for d, c := range cs {
		if c.ID < 0 || c.ID > math.MaxInt32 || !reg.Canonical(c) {
			return false
		}
		for _, o := range cs[:d] {
			if o.ID == c.ID {
				return false
			}
		}
	}
	first, last := s.tick+1, s.tick+uint64(len(cs))
	s.entries = s.entries[:len(cs)]
	for d, c := range cs {
		rank := 0
		for _, o := range cs {
			if o.ID < c.ID {
				rank++
			}
		}
		at := first + uint64(d)
		uses := uint64(1)
		if p := s.run.policy.agePeriod; p > 0 {
			uses >>= last/p - at/p // the halvings at ticks in (at, last]
		}
		// Field by field: a composite literal would be built aside and
		// copied in whole, behind a bulk write barrier while the
		// collector runs.
		e := &s.entries[rank]
		e.setCopy(c)
		e.storedAt, e.hops = now, s.hopsFor(c.ID)
		e.seen, e.uses = at, uses
	}
	s.tick = last
	return true
}

// Remove drops id from the cache (e.g. on invalidation without refresh),
// reporting whether it was present.
func (s *Store) Remove(id data.ItemID) bool {
	i, ok := s.find(id)
	if ok {
		s.entries = slices.Delete(s.entries, i, i+1)
	}
	return ok
}

// Clear wipes every cached copy — the cache side of a node crash. The
// cumulative counters (accesses, hits, evictions) and the logical clock
// survive: they are measurements of what happened, not state the node
// holds.
func (s *Store) Clear() {
	clear(s.entries)
	s.entries = s.entries[:0]
}

// Contains reports whether id is cached, without touching the entry.
func (s *Store) Contains(id data.ItemID) bool {
	_, ok := s.find(id)
	return ok
}

// StoredAt returns when the cached copy of id was written into this store
// (the fetch time of its current version; same-version re-Puts do not
// advance it).
func (s *Store) StoredAt(id data.ItemID) (time.Duration, bool) {
	if i, ok := s.find(id); ok {
		return s.entries[i].storedAt, true
	}
	return 0, false
}

// Items returns the cached item ids sorted ascending.
func (s *Store) Items() []data.ItemID {
	return s.AppendItems(make([]data.ItemID, 0, len(s.entries)))
}

// AppendItems appends the cached item ids, sorted ascending, to dst: a
// periodic scan reusing one buffer allocates nothing.
func (s *Store) AppendItems(dst []data.ItemID) []data.ItemID {
	for i := range s.entries {
		dst = append(dst, data.ItemID(s.entries[i].id))
	}
	return dst
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
