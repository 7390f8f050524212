package data

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewMasterStartsAtVersionZero(t *testing.T) {
	m := NewMaster(7)
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
	m := NewMaster(1)
	for i := 1; i <= 5; i++ {
		c, err := m.Update(time.Duration(i) * time.Minute)
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
	m := NewMaster(1)
	if _, err := m.Update(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(time.Second); err == nil {
		t.Fatal("backward-time update accepted")
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
	if avg := testing.AllocsPerRun(200, func() {
		if !good.Consistent() || torn.Consistent() {
			t.Fatal("wrong verdict")
		}
	}); avg != 0 {
		t.Errorf("Consistent allocates %.2f/op, want 0", avg)
	}
}

func TestVersionAt(t *testing.T) {
	m := NewMaster(0)
	m.Update(time.Minute)     // v1 @ 1m
	m.Update(3 * time.Minute) // v2 @ 3m
	m.Update(3 * time.Minute) // v3 @ 3m (same instant)
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
	m := NewMaster(0)
	m.Update(90 * time.Second)
	if ct, ok := m.CommitTime(1); !ok || ct != 90*time.Second {
		t.Errorf("CommitTime(1) = %v,%v", ct, ok)
	}
	if _, ok := m.CommitTime(9); ok {
		t.Error("CommitTime of uncommitted version reported ok")
	}
}

func TestVersionAtInverseOfCommitTimeProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		m := NewMaster(0)
		now := time.Duration(0)
		for _, g := range gaps {
			now += time.Duration(g+1) * time.Second
			if _, err := m.Update(now); err != nil {
				return false
			}
		}
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
		m, _ := r.Master(id)
		c, err := m.Update(time.Duration(i) * time.Second)
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
	v1, err := m.Update(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := r.Master(0)
	for i := 2; i <= 10_001; i++ {
		if _, err := m.Update(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Update(time.Duration(i) * time.Second); err != nil {
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
				m, _ := r.Master(ItemID(i % 4))
				c, err := m.Update(time.Duration(i) * time.Millisecond)
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
