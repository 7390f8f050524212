package data

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// oneItem returns a one-item registry, the smallest owner of a master.
func oneItem(t testing.TB) *Registry {
	t.Helper()
	r, err := NewRegistry(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewMasterStartsAtVersionZero(t *testing.T) {
	r, err := NewRegistry(8)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := r.Master(7)
	c := m.Current()
	if c.Version != 0 {
		t.Errorf("Version = %d, want 0", c.Version)
	}
	if c.ID != 7 {
		t.Errorf("ID = %v, want D7", c.ID)
	}
	if !c.Consistent() {
		t.Error("fresh master copy not self-consistent")
	}
}

func TestUpdateIncrementsVersion(t *testing.T) {
	r := oneItem(t)
	for i := 1; i <= 5; i++ {
		c, err := r.Commit(0, time.Duration(i)*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if c.Version != Version(i) {
			t.Fatalf("Version = %d, want %d", c.Version, i)
		}
		if !c.Consistent() {
			t.Fatalf("updated copy v%d not self-consistent", i)
		}
	}
}

func TestUpdateRejectsTimeRegression(t *testing.T) {
	r := oneItem(t)
	if _, err := r.Commit(0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(0, time.Second); err == nil {
		t.Fatal("backward-time update accepted")
	}
	if _, err := r.Commit(1, time.Hour); err == nil {
		t.Fatal("commit to an unknown item accepted")
	}
	if m, _ := r.Master(0); m.Current().Version != 1 {
		t.Fatalf("refused commits moved the version to %d", m.Current().Version)
	}
}

func TestConsistentDetectsTorn(t *testing.T) {
	c := Copy{ID: 3, Version: 2, Value: ValueFor(3, 1)}
	if c.Consistent() {
		t.Fatal("torn copy (v2 claiming v1 payload) reported consistent")
	}
}

// referenceValue is the payload format spelled out independently of the
// package's own renderer.
func referenceValue(id ItemID, v Version) string {
	return fmt.Sprintf("item-%d-v%d", int(id), uint64(v))
}

func TestConsistentTable(t *testing.T) {
	cases := []struct {
		name string
		c    Copy
		want bool
	}{
		{"valid", Copy{ID: 3, Version: 2, Value: "item-3-v2"}, true},
		{"valid zero", Copy{ID: 0, Version: 0, Value: "item-0-v0"}, true},
		{"valid widest", Copy{ID: math.MinInt64, Version: math.MaxUint64,
			Value: referenceValue(math.MinInt64, math.MaxUint64)}, true},
		{"torn version", Copy{ID: 3, Version: 2, Value: "item-3-v1"}, false},
		{"wrong id", Copy{ID: 4, Version: 2, Value: "item-3-v2"}, false},
		{"truncated", Copy{ID: 3, Version: 12, Value: "item-3-v1"}, false},
		{"extended", Copy{ID: 3, Version: 1, Value: "item-3-v12"}, false},
		{"empty", Copy{ID: 3, Version: 2}, false},
		{"sign dropped", Copy{ID: -3, Version: 2, Value: "item-3-v2"}, false},
		{"leading zero", Copy{ID: 3, Version: 2, Value: "item-03-v2"}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Consistent(); got != tc.want {
			t.Errorf("%s: Consistent() = %v, want %v", tc.name, got, tc.want)
		}
		if ref := tc.c.Value == referenceValue(tc.c.ID, tc.c.Version); ref != tc.want {
			t.Errorf("%s: case disagrees with the reference format", tc.name)
		}
	}
}

// TestConsistentMatchesFormattedCompareProperty pins the allocation-free
// check against the comparison it replaced, over valid payloads and the
// ways one goes wrong: another version's or item's payload, a truncated or
// extended one, a flipped byte.
func TestConsistentMatchesFormattedCompareProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		id := ItemID(rng.Intn(2000) - 100)
		v := Version(rng.Uint64() >> uint(rng.Intn(64)))
		c := Copy{ID: id, Version: v, Value: referenceValue(id, v)}
		switch rng.Intn(7) {
		case 0:
			c.Version += Version(1 + rng.Intn(3)) // torn: payload of an older version
		case 1:
			c.ID += ItemID(1 + rng.Intn(3))
		case 2:
			c.Value = c.Value[:rng.Intn(len(c.Value))]
		case 3:
			c.Value += string(rune('0' + rng.Intn(10)))
		case 4:
			b := []byte(c.Value)
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			c.Value = string(b)
		}
		want := c.Value == referenceValue(c.ID, c.Version)
		if got := c.Consistent(); got != want {
			t.Fatalf("Copy{ID: %d, Version: %d, Value: %q}.Consistent() = %v, want %v", c.ID, c.Version, c.Value, got, want)
		}
		if got := ValueFor(id, v); got != referenceValue(id, v) {
			t.Fatalf("ValueFor(%d, %d) = %q, want %q", id, v, got, referenceValue(id, v))
		}
	}
}

func TestConsistentDoesNotAllocate(t *testing.T) {
	good := Copy{ID: 17, Version: 123456, Value: ValueFor(17, 123456)}
	torn := Copy{ID: 17, Version: 123457, Value: good.Value}
	if total := testing.AllocsPerRun(1, func() {
		for range 200 {
			if !good.Consistent() || torn.Consistent() {
				t.Fatal("wrong verdict")
			}
		}
	}); total != 0 {
		t.Errorf("200 Consistent pairs allocate %.0f objects, want 0", total)
	}
}

func TestVersionAt(t *testing.T) {
	r := oneItem(t)
	r.Commit(0, time.Minute)   // v1 @ 1m
	r.Commit(0, 3*time.Minute) // v2 @ 3m
	r.Commit(0, 3*time.Minute) // v3 @ 3m (same instant)
	m, _ := r.Master(0)
	tests := []struct {
		t    time.Duration
		want Version
	}{
		{0, 0},
		{30 * time.Second, 0},
		{time.Minute, 1},
		{2 * time.Minute, 1},
		{3 * time.Minute, 3},
		{time.Hour, 3},
	}
	for _, tt := range tests {
		if got := m.VersionAt(tt.t); got != tt.want {
			t.Errorf("VersionAt(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestCommitTime(t *testing.T) {
	r := oneItem(t)
	r.Commit(0, 90*time.Second)
	m, _ := r.Master(0)
	if ct, ok := m.CommitTime(1); !ok || ct != 90*time.Second {
		t.Errorf("CommitTime(1) = %v,%v", ct, ok)
	}
	if _, ok := m.CommitTime(9); ok {
		t.Error("CommitTime of uncommitted version reported ok")
	}
}

func TestVersionAtInverseOfCommitTimeProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		r := oneItem(t)
		now := time.Duration(0)
		for _, g := range gaps {
			now += time.Duration(g+1) * time.Second
			if _, err := r.Commit(0, now); err != nil {
				return false
			}
		}
		m, _ := r.Master(0)
		for v := Version(0); v <= m.Current().Version; v++ {
			ct, ok := m.CommitTime(v)
			if !ok {
				return false
			}
			// At its own commit instant, a version (or a later one that
			// committed at the same instant) is current.
			if m.VersionAt(ct) < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	if _, err := NewRegistry(0); err == nil {
		t.Error("zero items accepted")
	}
	r, err := NewRegistry(50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, err := r.Master(50); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := r.Master(-1); err == nil {
		t.Error("negative item accepted")
	}
	m, err := r.Master(10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Current().ID != 10 {
		t.Errorf("Master(10).ID = %v", m.Current().ID)
	}
	if r.Owner(10) != 10 || r.OwnedBy(10) != 10 {
		t.Error("identity ownership mapping broken")
	}
}

// TestArenaPayloadsMatchValueFor: payloads rendered into the registry's
// arena equal the canonical ValueFor bytes for every version, across many
// chunk boundaries and for items whose ids differ in width.
func TestArenaPayloadsMatchValueFor(t *testing.T) {
	r, err := NewRegistry(1200)
	if err != nil {
		t.Fatal(err)
	}
	ids := []ItemID{0, 7, 42, 1199}
	for _, id := range ids {
		m, _ := r.Master(id)
		if got, want := m.Current().Value, ValueFor(id, 0); got != want {
			t.Fatalf("item %d v0 payload %q, want %q", id, got, want)
		}
	}
	// ~15-byte payloads: 4 000 commits cross a 4 KB chunk ~15 times.
	for i := 1; i <= 4000; i++ {
		id := ids[i%len(ids)]
		c, err := r.Commit(id, time.Duration(i)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if want := ValueFor(id, c.Version); c.Value != want || !c.Consistent() {
			t.Fatalf("item %d v%d payload %q, want %q", id, c.Version, c.Value, want)
		}
	}
}

// TestArenaCopyOutlivesLaterUpdates: a copy taken at version 1 keeps its
// bytes while the arena fills thousands of later payloads around it.
func TestArenaCopyOutlivesLaterUpdates(t *testing.T) {
	r, err := NewRegistry(3)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := r.Master(2)
	v1, err := r.Commit(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 10_001; i++ {
		if _, err := r.Commit(2, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Commit(0, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if v1.Value != "item-2-v1" || !v1.Consistent() {
		t.Fatalf("version-1 copy now reads %q", v1.Value)
	}
	if got := m.Current().Value; got != "item-2-v10001" {
		t.Fatalf("current payload %q", got)
	}
}

// TestRegistriesUpdateConcurrently: registries of parallel simulations own
// separate arenas, so updating two from two goroutines is race-clean (run
// under -race) and each sees only its own payloads.
func TestRegistriesUpdateConcurrently(t *testing.T) {
	regs := make([]*Registry, 2)
	for i := range regs {
		r, err := NewRegistry(4)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = r
	}
	errs := make(chan error, len(regs))
	for _, r := range regs {
		go func(r *Registry) {
			for i := 1; i <= 2000; i++ {
				c, err := r.Commit(ItemID(i%4), time.Duration(i)*time.Millisecond)
				if err == nil && !c.Consistent() {
					err = fmt.Errorf("torn payload %q for v%d", c.Value, c.Version)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(r)
	}
	for range regs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range regs {
		for id := ItemID(0); id < 4; id++ {
			m, _ := r.Master(id)
			if c := m.Current(); c.Version != 500 || c.Value != ValueFor(id, 500) {
				t.Errorf("item %d ends at %+v", id, c)
			}
		}
	}
}

func TestItemIDString(t *testing.T) {
	if got := ItemID(17).String(); got != "D17" {
		t.Errorf("String = %q", got)
	}
}

// TestCanonicalProvesIdentityAndRendersTheRest: a master's current copy
// passes by identity, and every other copy gets the full render-and-
// compare — so an equal-bytes copy still passes, while a torn copy, or the
// current payload's own bytes under another version, is refused.
func TestCanonicalProvesIdentityAndRendersTheRest(t *testing.T) {
	r, err := NewRegistry(4)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := r.Master(2)
	v0 := m.Current()
	if _, err := r.Commit(2, time.Second); err != nil {
		t.Fatal(err)
	}
	cur := m.Current()
	wrongVersion := cur
	wrongVersion.Version = 0 // the v1 payload's own bytes, claiming v0
	otherItem := cur
	otherItem.ID = 3 // D2's bytes, claiming D3
	cases := []struct {
		name string
		c    Copy
		want bool
	}{
		{"current copy", cur, true},
		{"superseded copy", v0, true},
		{"rendered copy", Copy{ID: 2, Version: 1, Value: ValueFor(2, 1)}, true},
		{"torn copy", Copy{ID: 2, Version: 1, Value: ValueFor(2, 0)}, false},
		{"current bytes, wrong version", wrongVersion, false},
		{"current bytes, wrong item", otherItem, false},
		{"unknown item, rendered", Copy{ID: 9, Version: 0, Value: ValueFor(9, 0)}, true},
		{"unknown item, torn", Copy{ID: -1, Version: 0, Value: "item-0-v0"}, false},
	}
	for _, tc := range cases {
		if got := r.Canonical(tc.c); got != tc.want {
			t.Errorf("%s: Canonical = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.c.Consistent(); got != tc.want {
			t.Errorf("%s: Consistent = %v, Canonical's fallback disagrees", tc.name, got)
		}
	}
}

// TestHistoryMatchesReferenceProperty drives interleaved items' histories
// against plain slices of commit times, past the tenth segment boundary,
// with runs of commits at one instant. After every commit, every version's
// CommitTime must be the reference's, the next version must be
// uncommitted, and VersionAt must agree before, at and between every
// commit time.
func TestHistoryMatchesReferenceProperty(t *testing.T) {
	const items, commits = 3, 1200 // segment 10 opens at version 1 025
	rng := rand.New(rand.NewSource(51))
	r, err := NewRegistry(items)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]time.Duration, items) // ref[id][v] = commit time of v; v0 at 0
	now := make([]time.Duration, items)
	for id := range ref {
		ref[id] = []time.Duration{0}
	}
	// refVersionAt is the largest v with ref[id][v] <= at, or 0.
	refVersionAt := func(id int, at time.Duration) Version {
		v := sort.Search(len(ref[id]), func(i int) bool { return ref[id][i] > at }) - 1
		return Version(max(v, 0))
	}
	check := func(id int) {
		m, _ := r.Master(ItemID(id))
		cur := Version(len(ref[id]) - 1)
		if m.Current().Version != cur {
			t.Fatalf("D%d at version %d, reference at %d", id, m.Current().Version, cur)
		}
		if _, ok := m.CommitTime(cur + 1); ok {
			t.Fatalf("D%d: CommitTime(%d) reported an uncommitted version", id, cur+1)
		}
		for v, want := range ref[id] {
			if got, ok := m.CommitTime(Version(v)); !ok || got != want {
				t.Fatalf("D%d: CommitTime(%d) = %v,%v, want %v", id, v, got, ok, want)
			}
			for _, at := range []time.Duration{want - 1, want, want + 1} {
				if got, want := m.VersionAt(at), refVersionAt(id, at); got != want {
					t.Fatalf("D%d at v%d: VersionAt(%v) = %d, want %d", id, cur, at, got, want)
				}
			}
		}
	}
	for i := 0; i < items*commits; i++ {
		id := rng.Intn(items)
		if len(ref[id]) > commits {
			id = (id + 1) % items
		}
		switch rng.Intn(4) {
		case 0: // same instant as the last commit
		case 1:
			now[id]++
		default:
			now[id] += time.Duration(1 + rng.Intn(3))
		}
		c, err := r.Commit(ItemID(id), now[id])
		if err != nil {
			t.Fatal(err)
		}
		ref[id] = append(ref[id], now[id])
		if c.Version != Version(len(ref[id])-1) || c.WrittenAt != now[id] || !c.Consistent() {
			t.Fatalf("commit %d of D%d returned %+v", len(ref[id])-1, id, c)
		}
		// Checking is quadratic: every commit early on, then around the
		// segment boundaries and at random.
		if v := len(ref[id]) - 1; v < 70 || v&(v-1) == 0 || (v-1)&(v-2) == 0 || rng.Intn(20) == 0 {
			check(id)
		}
	}
	for id := range ref {
		check(id)
		if m, _ := r.Master(ItemID(id)); segments(m.Current().Version) < 10 {
			t.Fatalf("D%d spans %d segments, want at least 10", id, segments(m.Current().Version))
		}
	}
}

// TestFirstCommitsAllocateOnlyChunks: one commit on each of 10 000 items
// draws from shared chunks — payload arena, commit times, segment
// indexes — so it costs at most one malloc per 64 items, not one per item.
func TestFirstCommitsAllocateOnlyChunks(t *testing.T) {
	const n = 10_000
	r, err := NewRegistry(n)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := ItemID(0); id < n; id++ {
		if _, err := r.Commit(id, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > n/64 {
		t.Errorf("first commits on %d items cost %d mallocs, budget %d", n, mallocs, n/64)
	}
}

// TestDeepHistoryIsNotCopied: 4 096 commits on one item allocate at most
// two 8-byte slots of history per commit beyond their payloads, so no
// commit regrows or copies the history written before it.
func TestDeepHistoryIsNotCopied(t *testing.T) {
	const commits = 4096
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	r := oneItem(t)
	total := allocated(func() {
		for i := 1; i <= commits; i++ {
			if _, err := r.Commit(0, time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	})
	var a arena
	payloads := allocated(func() {
		for v := Version(1); v <= commits; v++ {
			a.value(0, v)
		}
	})
	perCommit := float64(total-min(payloads, total)) / commits
	t.Logf("%d commits: %d B, %d B of them payloads: %.1f B of history per commit", commits, total, payloads, perCommit)
	if perCommit > 2*8 {
		t.Errorf("history costs %.1f B per commit, budget 16", perCommit)
	}
}

// TestMasterIsSmall: a master is its current copy plus one history
// pointer.
func TestMasterIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Master{}); size > 48 {
		t.Errorf("Master is %d B, budget 48", size)
	}
}

// TestSetupAllocatesNoHistory: a fresh registry's masters hold no
// history, and version 0's commit time is 0.
func TestSetupAllocatesNoHistory(t *testing.T) {
	r, err := NewRegistry(100)
	if err != nil {
		t.Fatal(err)
	}
	for id := ItemID(0); id < 100; id++ {
		m, _ := r.Master(id)
		if m.segs != nil {
			t.Fatalf("D%d holds a history before its first commit", id)
		}
		if ct, ok := m.CommitTime(0); !ok || ct != 0 {
			t.Fatalf("D%d: CommitTime(0) = %v,%v", id, ct, ok)
		}
		if got := m.VersionAt(-1); got != 0 {
			t.Fatalf("D%d: VersionAt(-1) = %d", id, got)
		}
	}
}
