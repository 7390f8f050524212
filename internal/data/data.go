// Package data defines the data items shared in the mobile peer-to-peer
// system and the ground-truth registry of master copies.
//
// Following the paper's system model (§3): each data item D_i has exactly
// one source host M_i that owns the master copy; only the source host may
// modify it; the version number starts at zero on creation and increments
// on every update. The registry is the simulation's ground truth — the
// consistency auditor compares every served query against it.
package data

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"time"
	"unsafe"
)

// ItemID identifies a data item. Under the paper's simplifying assumption
// (m = n, host i owns item i) ItemID and host index share a value space,
// but the types are kept distinct so the code never confuses them.
type ItemID int

// String renders the id for traces, e.g. "D17".
func (id ItemID) String() string { return fmt.Sprintf("D%d", int(id)) }

// Version is a data item's monotonically increasing version number.
type Version uint64

// Copy is one concrete version of a data item: the unit stored at source
// hosts, relay peers and cache nodes, and carried inside UPDATE/SEND_NEW/
// POLL_ACK_B payloads.
type Copy struct {
	ID        ItemID
	Version   Version
	Value     string        // synthetic payload, derived from (ID, Version)
	WrittenAt time.Duration // virtual time the source host committed it
}

// ValueFor is the canonical synthetic payload for a given item version.
// Deriving the payload from (id, version) lets tests and the auditor check
// that a served copy was never torn or fabricated.
func ValueFor(id ItemID, v Version) string {
	var buf [maxValueLen]byte
	return string(appendValue(buf[:0], id, v))
}

// maxValueLen bounds the canonical payload: the fixed text plus the
// longest decimal int64 and uint64.
const maxValueLen = len("item-") + 20 + len("-v") + 20

// appendValue appends the canonical payload "item-<id>-v<version>" to b.
func appendValue(b []byte, id ItemID, v Version) []byte {
	b = append(b, "item-"...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, "-v"...)
	return strconv.AppendUint(b, uint64(v), 10)
}

// Consistent reports whether the copy's payload matches its claimed
// (ID, Version) pair — i.e. the copy is some committed value, never a torn
// or invented one. This is the mechanical core of the paper's
// weak-consistency guarantee (Eq 3.2.3). Every audited answer and every
// content-bearing message runs it, so the canonical payload is rendered
// into a stack buffer and compared in place rather than built as a string.
func (c Copy) Consistent() bool {
	var buf [maxValueLen]byte
	return c.Value == string(appendValue(buf[:0], c.ID, c.Version))
}

// arenaChunk is the size of one payload arena chunk: a few hundred
// canonical payloads.
const arenaChunk = 4096

// arena is an append-only byte store the canonical payloads are rendered
// into. A payload is a string over its own bytes of a chunk, and a chunk is
// never written again once a payload sits in it (copies in caches and in
// flight still point there), so a full chunk is left to the collector and
// a fresh one started. One arena serves one registry, and so one
// simulation: registries on parallel goroutines never share a chunk.
type arena struct {
	buf []byte
}

// value renders the canonical payload for (id, v) into the arena.
func (a *arena) value(id ItemID, v Version) string {
	if cap(a.buf)-len(a.buf) < maxValueLen {
		a.buf = make([]byte, 0, arenaChunk)
	}
	start := len(a.buf)
	// The room check above means appendValue never reallocates, so the
	// bytes stay where the string points.
	a.buf = appendValue(a.buf, id, v)
	return unsafe.String(&a.buf[start], len(a.buf)-start)
}

// Master is a source host's authoritative copy plus its commit history,
// which the auditor uses to translate versions to commit times. Version 0
// is committed at time 0 and takes no slot; versions 1.. are written into
// segments carved from the registry's history slab (Registry.Commit), so
// an item never updated holds no history at all.
type Master struct {
	cur Copy
	// segs points at the first entry of the segment index, which holds
	// the address of each segment's first slot: segments(cur.Version)
	// entries, nil before the first commit.
	segs **time.Duration
}

// init makes m version 0 of item id at virtual time 0, its payload drawn
// from a.
func (m *Master) init(id ItemID, a *arena) {
	*m = Master{cur: Copy{ID: id, Version: 0, Value: a.value(id, 0), WrittenAt: 0}}
}

// locate returns the segment and offset of version v ≥ 1. Version v is
// commit j = v−1: segment 0 holds j = 0 and 1, segment k ≥ 1 holds
// j ∈ [2^k, 2^(k+1)), so each segment doubles the history's capacity
// (2, 4, 8, …) and n commits occupy fewer than 2n slots.
func locate(v Version) (seg int, off uint64) {
	j := uint64(v) - 1
	if j < 2 {
		return 0, j
	}
	seg = bits.Len64(j) - 1
	return seg, j - 1<<seg
}

// segCap is the number of versions segment k holds.
func segCap(k int) int { return max(2, 1<<k) }

// firstOf is the first version segment k holds.
func firstOf(k int) Version {
	if k == 0 {
		return 1
	}
	return 1<<k + 1
}

// segments is the number of segments a history up to version v spans.
func segments(v Version) int {
	if v == 0 {
		return 0
	}
	k, _ := locate(v)
	return k + 1
}

// index returns m's segment index.
func (m *Master) index() []*time.Duration {
	return unsafe.Slice(m.segs, segments(m.cur.Version))
}

// segment returns segment k of m's history, which must exist.
func (m *Master) segment(k int) []time.Duration {
	return unsafe.Slice(unsafe.Slice(m.segs, k+1)[k], segCap(k))
}

// addSegment carves segment k, the next one, for m's history. The index
// is carved with room for a power of two of entries, so it moves — its k
// addresses copied, never a commit time — only when k is 0 or a power of
// two.
func (m *Master) addSegment(s *historySlab, k int) {
	if k&(k-1) == 0 {
		grown := s.index(max(1, 2*k))
		copy(grown, m.index())
		m.segs = &grown[0]
	}
	unsafe.Slice(m.segs, k+1)[k] = &s.times(segCap(k))[0]
}

// Current returns the authoritative copy.
func (m *Master) Current() Copy { return m.cur }

// VersionAt returns the version that was current at virtual time t —
// i.e. the largest v whose commit time is <= t. It backs the auditor's
// staleness computation (Eq 3.2.2: find τ with C^t = S^{t-τ}).
func (m *Master) VersionAt(t time.Duration) Version {
	if t >= m.cur.WrittenAt {
		return m.cur.Version
	}
	// Commit times never decrease, so the answer is in the last segment
	// whose first commit is at or before t; t < WrittenAt, so t+1 cannot
	// overflow.
	idx := m.index()
	k, _ := slices.BinarySearchFunc(idx, t+1, func(first *time.Duration, u time.Duration) int {
		return cmp.Compare(*first, u)
	})
	if k == 0 {
		return 0
	}
	k--
	seg := m.segment(k)
	if k == len(idx)-1 {
		_, off := locate(m.cur.Version)
		seg = seg[:off+1]
	}
	off, _ := slices.BinarySearch(seg, t+1)
	return firstOf(k) + Version(off) - 1
}

// CommitTime returns the virtual time version v was committed, or false if
// v has not been committed.
func (m *Master) CommitTime(v Version) (time.Duration, bool) {
	switch {
	case v > m.cur.Version:
		return 0, false
	case v == 0:
		return 0, true
	}
	k, off := locate(v)
	return m.segment(k)[off], true
}

// Chunk sizes of the history slab.
const (
	timesChunk = 512 // commit times per chunk: 4 KB, as an arena chunk
	indexChunk = 512 // segment addresses per index chunk
)

// historySlab carves the masters' histories. Commit times come from
// pointer-free chunks the collector never scans, segment indexes from
// chunks of addresses. Like the payload arena it only ever hands out
// fresh room: a full chunk is left to the histories that point into it.
type historySlab struct {
	timesBuf []time.Duration
	indexBuf []*time.Duration
}

// times carves room for n commit times; a segment as large as a chunk
// is an allocation of its own.
func (s *historySlab) times(n int) []time.Duration {
	if n >= timesChunk {
		return make([]time.Duration, n)
	}
	return carve(&s.timesBuf, n, timesChunk)
}

// index carves room for n ≤ 64 segment addresses.
func (s *historySlab) index(n int) []*time.Duration {
	return carve(&s.indexBuf, n, indexChunk)
}

// carve returns the next n elements of *chunk, first starting a fresh
// chunk of capacity size when fewer than n are left.
func carve[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, size)
	}
	start := len(*chunk)
	*chunk = (*chunk)[:start+n]
	return (*chunk)[start : start+n : start+n]
}

// Registry is the ground-truth table of every master copy in the system.
// It owns the storage every commit writes into: the payload arena and the
// history slab. One registry serves one simulation, so registries on
// parallel goroutines never share a chunk.
type Registry struct {
	masters []Master
	arena   arena
	hist    historySlab
}

// NewRegistry creates n items, item i owned by host i (the paper's m = n
// assumption).
func NewRegistry(n int) (*Registry, error) {
	if n <= 0 {
		return nil, fmt.Errorf("data: need at least one item, got %d", n)
	}
	// One slab of masters and the payload arena: set-up costs two
	// allocations plus a chunk per few hundred items, and no history.
	r := &Registry{masters: make([]Master, n)}
	for i := range r.masters {
		r.masters[i].init(ItemID(i), &r.arena)
	}
	return r, nil
}

// Commit commits item id's next version at virtual time now and returns
// the new copy. Commit times may repeat but must not decrease. The
// payload is rendered into the arena and the time written into the
// item's history, so a commit allocates nothing but an occasional chunk,
// and no commit copies or moves an earlier one.
func (r *Registry) Commit(id ItemID, now time.Duration) (Copy, error) {
	m, err := r.Master(id)
	if err != nil {
		return Copy{}, err
	}
	if now < m.cur.WrittenAt {
		return Copy{}, fmt.Errorf("data: update at %v before last write %v of %v", now, m.cur.WrittenAt, id)
	}
	next := m.cur.Version + 1
	k, off := locate(next)
	if off == 0 {
		m.addSegment(&r.hist, k)
	}
	m.segment(k)[off] = now
	m.cur = Copy{ID: id, Version: next, Value: r.arena.value(id, next), WrittenAt: now}
	return m.cur, nil
}

// Len returns the number of items.
func (r *Registry) Len() int { return len(r.masters) }

// Master returns item id's master, or an error for unknown ids.
func (r *Registry) Master(id ItemID) (*Master, error) {
	if int(id) < 0 || int(id) >= len(r.masters) {
		return nil, fmt.Errorf("data: unknown item %v", id)
	}
	return &r.masters[int(id)], nil
}

// Canonical reports whether c is a committed value of its item, as
// Consistent does. A copy that is its master's current copy by identity —
// same ID and Version, and a Value over the very arena bytes the master
// rendered (same pointer and length) — is canonical by construction, since
// the arena never rewrites a chunk, so it skips the render-and-compare.
// Every other copy, including one that carries the current payload's bytes
// under another version, is rendered and compared.
func (r *Registry) Canonical(c Copy) bool {
	if int(c.ID) >= 0 && int(c.ID) < len(r.masters) {
		cur := &r.masters[c.ID].cur
		if c.Version == cur.Version && len(c.Value) == len(cur.Value) &&
			unsafe.StringData(c.Value) == unsafe.StringData(cur.Value) {
			return true
		}
	}
	return c.Consistent()
}

// Owner returns the host index that owns item id (identity mapping).
func (r *Registry) Owner(id ItemID) int { return int(id) }

// OwnedBy returns the item owned by host (identity mapping).
func (r *Registry) OwnedBy(host int) ItemID { return ItemID(host) }
