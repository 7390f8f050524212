package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// sameStore reports how a and b differ in everything a store holds, or ""
// when they hold the same entries (order included), clock and counters.
func sameStore(a, b *Store) string {
	switch {
	case !reflect.DeepEqual(a.entries, b.entries):
		return "entries differ"
	case cap(a.entries) != cap(b.entries):
		return "capacities differ"
	case a.tick != b.tick:
		return "ticks differ"
	case a.accesses != b.accesses || a.hits != b.hits || a.evicts != b.evicts:
		return "counters differ"
	}
	return ""
}

// TestWarmMatchesPuts: a batch Warm into an empty store leaves it exactly
// as putting the same copies one at a time does — entries, ticks, use
// counts, admission times, hop estimates, clock — under every policy, for
// batches from empty to full. LFU ages every 3 ticks here, so halvings
// land inside the batch. Batches Warm must refuse leave the store as it
// was.
func TestWarmMatchesPuts(t *testing.T) {
	const capacity, universe = 6, 40
	reg, err := data.NewRegistry(universe)
	if err != nil {
		t.Fatal(err)
	}
	current := func(id data.ItemID) data.Copy {
		m, err := reg.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		return m.Current()
	}
	hops := func(id data.ItemID) int { return int(id)%5 + 1 }
	rng := rand.New(rand.NewSource(3))
	for _, kind := range AllPolicyKinds() {
		p, err := NewPolicy(kind, PolicyParams{AgePeriod: 3})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			stores, _ := NewStores(2, capacity, p)
			batch, ref := stores[0], stores[1]
			batch.SetHopsHint(hops)
			ref.SetHopsHint(hops)
			// A few reads first, so the clock and counters do not start
			// at zero.
			for range rng.Intn(3) {
				batch.Get(0)
				ref.Get(0)
			}
			cs := make([]data.Copy, 0, capacity)
			for _, id := range rng.Perm(universe)[:rng.Intn(capacity+1)] {
				cs = append(cs, current(data.ItemID(id)))
			}
			now := time.Duration(trial) * time.Second
			if !batch.Warm(cs, now, reg) {
				t.Fatalf("%s: Warm refused %d distinct canonical copies into an empty store", kind, len(cs))
			}
			for _, c := range cs {
				if err := ref.Put(c, now); err != nil {
					t.Fatal(err)
				}
			}
			if diff := sameStore(batch, ref); diff != "" {
				t.Fatalf("%s trial %d: batch of %d vs puts: %s", kind, trial, len(cs), diff)
			}
			// The warmed store then evicts and ages exactly like the put one.
			for step := 0; step < 20; step++ {
				c := current(data.ItemID(rng.Intn(universe)))
				ev1, has1, _ := batch.PutEvict(c, now)
				ev2, has2, _ := ref.PutEvict(c, now)
				if ev1 != ev2 || has1 != has2 {
					t.Fatalf("%s trial %d step %d: evicted %v/%v vs %v/%v", kind, trial, step, ev1, has1, ev2, has2)
				}
			}
		}
	}
}

// TestWarmRefusesWhatItCannotProve: Warm takes nothing — and leaves the
// store, its clock included, untouched — for a batch that does not fit, a
// store already holding something, a repeated or negative id, a torn copy
// or the current payload's bytes under another version. Put still refuses
// the bad copies on the one-at-a-time path.
func TestWarmRefusesWhatItCannotProve(t *testing.T) {
	reg, _ := data.NewRegistry(8)
	cur := func(id data.ItemID) data.Copy { m, _ := reg.Master(id); return m.Current() }
	torn := data.Copy{ID: 3, Version: 1, Value: data.ValueFor(3, 0)}
	wrongVersion := cur(4)
	wrongVersion.Version = 1
	negative := data.Copy{ID: -1, Value: data.ValueFor(-1, 0)}
	cases := []struct {
		name string
		cs   []data.Copy
	}{
		{"over capacity", []data.Copy{cur(0), cur(1), cur(2), cur(5)}},
		{"repeated id", []data.Copy{cur(1), cur(2), cur(1)}},
		{"torn copy", []data.Copy{cur(1), torn}},
		{"current bytes, wrong version", []data.Copy{wrongVersion, cur(2)}},
		{"negative id", []data.Copy{negative}},
	}
	for _, tc := range cases {
		s, _ := NewStore(3)
		s.Get(7)
		want := *s
		if s.Warm(tc.cs, time.Second, reg) {
			t.Errorf("%s: Warm took the batch", tc.name)
		}
		if diff := sameStore(s, &want); diff != "" || s.Len() != 0 {
			t.Errorf("%s: refused Warm changed the store: %s", tc.name, diff)
		}
	}
	for _, bad := range []data.Copy{torn, wrongVersion, negative} {
		s, _ := NewStore(3)
		if err := s.Put(bad, 0); err == nil {
			t.Errorf("Put accepted %v v%d %q", bad.ID, bad.Version, bad.Value)
		}
	}
	s, _ := NewStore(3)
	s.Put(cur(1), 0)
	if s.Warm([]data.Copy{cur(2)}, 0, reg) || s.Len() != 1 {
		t.Error("Warm wrote into a store that already held a copy")
	}
}
