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
	"fmt"
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

// Master is a source host's authoritative copy plus its update history
// timeline, which the auditor uses to translate versions to commit times.
type Master struct {
	cur     Copy
	commits []time.Duration // commits[v] = virtual time version v was written
	arena   *arena          // where Update renders the payloads
}

// init makes m version 0 of item id at virtual time 0, its payload drawn
// from a and its history starting in commits (length 1).
func (m *Master) init(id ItemID, a *arena, commits []time.Duration) {
	*m = Master{
		cur:     Copy{ID: id, Version: 0, Value: a.value(id, 0), WrittenAt: 0},
		commits: commits,
		arena:   a,
	}
}

// NewMaster creates version 0 of the item at virtual time 0, with an arena
// of its own.
func NewMaster(id ItemID) *Master {
	m := new(Master)
	m.init(id, new(arena), make([]time.Duration, 1))
	return m
}

// Update commits the next version at virtual time now and returns the new
// copy. Updates at non-decreasing times are enforced. The payload is
// rendered into the registry's arena, so a commit allocates nothing but an
// occasional arena chunk and history growth.
func (m *Master) Update(now time.Duration) (Copy, error) {
	if now < m.cur.WrittenAt {
		return Copy{}, fmt.Errorf("data: update at %v before last write %v of %v", now, m.cur.WrittenAt, m.cur.ID)
	}
	next := m.cur.Version + 1
	m.cur = Copy{ID: m.cur.ID, Version: next, Value: m.arena.value(m.cur.ID, next), WrittenAt: now}
	m.commits = append(m.commits, now)
	return m.cur, nil
}

// Current returns the authoritative copy.
func (m *Master) Current() Copy { return m.cur }

// VersionAt returns the version that was current at virtual time t —
// i.e. the largest v whose commit time is <= t. It backs the auditor's
// staleness computation (Eq 3.2.2: find τ with C^t = S^{t-τ}).
func (m *Master) VersionAt(t time.Duration) Version {
	// commits is sorted ascending; binary search for the last <= t.
	lo, hi := 0, len(m.commits)-1
	if t >= m.commits[hi] {
		return Version(hi)
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.commits[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Version(lo)
}

// CommitTime returns the virtual time version v was committed, or false if
// v has not been committed.
func (m *Master) CommitTime(v Version) (time.Duration, bool) {
	if int(v) >= len(m.commits) {
		return 0, false
	}
	return m.commits[int(v)], true
}

// Registry is the ground-truth table of every master copy in the system.
type Registry struct {
	masters []Master
}

// NewRegistry creates n items, item i owned by host i (the paper's m = n
// assumption).
func NewRegistry(n int) (*Registry, error) {
	if n <= 0 {
		return nil, fmt.Errorf("data: need at least one item, got %d", n)
	}
	// One slab of masters, one of first history entries and one payload
	// arena: set-up costs three allocations plus a chunk per few hundred
	// items, not three per item.
	r := &Registry{masters: make([]Master, n)}
	a, commits := new(arena), make([]time.Duration, n)
	for i := range r.masters {
		r.masters[i].init(ItemID(i), a, commits[i:i+1:i+1])
	}
	return r, nil
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
