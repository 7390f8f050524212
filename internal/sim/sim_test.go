package sim

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(3*time.Second, "c", func(*Kernel) { order = append(order, 3) })
	k.After(1*time.Second, "a", func(*Kernel) { order = append(order, 1) })
	k.After(2*time.Second, "b", func(*Kernel) { order = append(order, 2) })
	end := k.Run()
	if end != 3*time.Second {
		t.Errorf("Run() = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		k.After(time.Second, name, func(*Kernel) { order = append(order, name) })
	}
	k.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("order = %v, want FIFO at same instant", order)
	}
}

func TestAtRejectsPast(t *testing.T) {
	k := NewKernel()
	k.After(5*time.Second, "advance", func(kk *Kernel) {
		if _, err := kk.At(time.Second, "past", func(*Kernel) {}); err == nil {
			t.Error("At(past) succeeded, want error")
		}
	})
	k.Run()
}

func TestAtRejectsNilHandler(t *testing.T) {
	k := NewKernel()
	if _, err := k.At(time.Second, "nil", nil); err == nil {
		t.Fatal("At(nil handler) succeeded, want error")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-time.Second, "neg", func(*Kernel) { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0 after clamped event", k.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.After(time.Second, "x", func(*Kernel) { fired = true })
	if !k.Cancel(e) {
		t.Fatal("Cancel returned false on pending event")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	e := k.After(time.Second, "x", func(*Kernel) {})
	k.Run()
	if k.Cancel(e) {
		t.Fatal("Cancel returned true on fired event")
	}
}

func TestCancelNil(t *testing.T) {
	k := NewKernel()
	if k.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(WithHorizon(10 * time.Second))
	count := 0
	stop, err := k.Every(3*time.Second, "tick", func(*Kernel) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	end := k.Run()
	if end != 10*time.Second {
		t.Errorf("Run() = %v, want horizon 10s", end)
	}
	if count != 3 { // ticks at 3, 6, 9
		t.Errorf("ticks = %d, want 3", count)
	}
}

func TestHorizonAdvancesClockWhenQueueDrains(t *testing.T) {
	k := NewKernel(WithHorizon(time.Minute))
	k.After(time.Second, "only", func(*Kernel) {})
	end := k.Run()
	if end != time.Minute {
		t.Errorf("Run() = %v, want clock advanced to horizon", end)
	}
}

func TestEveryStop(t *testing.T) {
	k := NewKernel(WithHorizon(time.Minute))
	count := 0
	var stop func()
	var err error
	stop, err = k.Every(time.Second, "tick", func(*Kernel) {
		count++
		if count == 5 {
			stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if count != 5 {
		t.Errorf("ticks = %d, want 5 after stop", count)
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	k := NewKernel()
	if _, err := k.Every(0, "bad", func(*Kernel) {}); err == nil {
		t.Fatal("Every(0) succeeded, want error")
	}
	if _, err := k.Every(-time.Second, "bad", func(*Kernel) {}); err == nil {
		t.Fatal("Every(-1s) succeeded, want error")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	k.After(time.Second, "a", func(kk *Kernel) { kk.Stop() })
	fired := false
	k.After(2*time.Second, "b", func(*Kernel) { fired = true })
	k.Run()
	if fired {
		t.Fatal("event after Stop fired")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

func TestRunUntilSteps(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.After(d, "e", func(kk *Kernel) { fired = append(fired, kk.Now()) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", k.Now())
	}
	k.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want clock advanced to 10s", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse Handler
	recurse = func(kk *Kernel) {
		depth++
		if depth < 10 {
			kk.After(time.Second, "r", recurse)
		}
	}
	k.After(time.Second, "r", recurse)
	end := k.Run()
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
	if end != 10*time.Second {
		t.Errorf("Run() = %v, want 10s", end)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	a := NewKernel(WithSeed(42))
	b := NewKernel(WithSeed(42))
	for i := 0; i < 100; i++ {
		if a.Stream("mobility").Int63() != b.Stream("mobility").Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestStreamsAreIndependentByName(t *testing.T) {
	k := NewKernel(WithSeed(42))
	a := k.Stream("alpha")
	b := k.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams alpha/beta produced %d identical values of 64", same)
	}
}

func TestStreamIsStableAcrossCreationOrder(t *testing.T) {
	a := NewKernel(WithSeed(7))
	b := NewKernel(WithSeed(7))
	// Create in different orders; named streams must not depend on order.
	a.Stream("x")
	av := a.Stream("y").Int63()
	b.Stream("y") // created first on b
	b.Stream("x")
	bv := b.streams["y"]
	_ = bv
	b2 := NewKernel(WithSeed(7))
	bv2 := b2.Stream("y").Int63()
	if av != bv2 {
		t.Fatal("stream value depends on creation order")
	}
}

// TestStreamGoldenDraws pins the generator: every seeded artefact in the
// repo (figures_1h.txt, the oracle corpus, the EXPERIMENTS tables) is a
// function of these bytes, so a change here must be deliberate.
func TestStreamGoldenDraws(t *testing.T) {
	r := NewKernel(WithSeed(1)).Stream("mobility.0")
	want := []uint64{0xaba3fbd7d27de958, 0xa445e326e057579a, 0x5fafc88e5ce5f9d3, 0x22cceb7c4aa4cc38}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	// Int63 is the top-bit-cleared Uint64, and Seed restarts the stream.
	r.Seed(deriveSeed(1, "mobility.0"))
	if got, w := r.Int63(), int64(want[0]&^(1<<63)); got != w {
		t.Fatalf("Int63 after Seed = %#x, want %#x", got, w)
	}
}

// TestStreamIsSmall bounds what one Stream costs to create. The map is
// pre-sized so its amortised growth is not counted: this is the stream
// itself (a math/rand.Rand plus a 16-byte PCG), where a math/rand source
// table alone is 4.9 KB.
func TestStreamIsSmall(t *testing.T) {
	const n = 4096
	names := make([]string, n)
	for i := range names {
		names[i] = "mobility." + strconv.Itoa(i)
	}
	k := NewKernel(WithSeed(1))
	k.streams = make(map[string]*rand.Rand, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, name := range names {
		k.Stream(name)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > 128 {
		t.Fatalf("Stream allocates %d B each, want <= 128", per)
	}
}

// TestStreamsMatchNamedStreams pins the bulk family to the named streams:
// member i of Streams(prefix, n) starts exactly where a fresh kernel's
// Stream(prefix+strconv.Itoa(i)) starts, over several roots and prefixes.
func TestStreamsMatchNamedStreams(t *testing.T) {
	for _, root := range []int64{1, 2, 7, -3, 1 << 40} {
		for _, prefix := range []string{"mobility.", "", "x"} {
			const n = 130
			fam := NewKernel(WithSeed(root)).Streams(prefix, n)
			named := NewKernel(WithSeed(root))
			for i, r := range fam {
				name := prefix + strconv.Itoa(i)
				want := named.Stream(name)
				for d := 0; d < 3; d++ {
					if got, w := r.Uint64(), want.Uint64(); got != w {
						t.Fatalf("root %d %q draw %d = %#x, want %#x", root, name, d, got, w)
					}
				}
				if got, w := r.Int63n(1000), want.Int63n(1000); got != w {
					t.Fatalf("root %d %q Int63n = %d, want %d", root, name, got, w)
				}
			}
		}
	}
	// The golden draws of mobility.0 hold for the family's member 0.
	if got, w := NewKernel(WithSeed(1)).Streams("mobility.", 1)[0].Uint64(), uint64(0xaba3fbd7d27de958); got != w {
		t.Fatalf("family mobility.0 first draw = %#x, want %#x", got, w)
	}
}

// TestStreamsOneGeneratorPerName pins what a family does to the names it
// covers: Stream on a member's name is that member (never a second
// generator replaying its sequence), a member created by Stream first
// joins the family as it is, non-members stay separate, and a repeated or
// overlapping family is the registered one or a panic.
func TestStreamsOneGeneratorPerName(t *testing.T) {
	k := NewKernel(WithSeed(5))
	early := k.Stream("m.3")
	early.Uint64() // a member drawn from before the family exists
	fam := k.Streams("m.", 8)
	if fam[3] != early {
		t.Fatal("Streams re-created member 3 instead of adopting the earlier Stream(\"m.3\")")
	}
	for _, i := range []int{0, 5, 7} {
		if got := k.Stream("m." + strconv.Itoa(i)); got != fam[i] {
			t.Fatalf("Stream(m.%d) after Streams is not member %d", i, i)
		}
	}
	for _, name := range []string{"m.8", "m.03", "m.+3", "m.-3", "m.", "m.x"} {
		r := k.Stream(name)
		if slices.Contains(fam, r) {
			t.Fatalf("Stream(%q) returned a family member", name)
		}
		if k.Stream(name) != r {
			t.Fatalf("Stream(%q) is not stable", name)
		}
	}
	if again := k.Streams("m.", 8); &again[0] != &fam[0] {
		t.Fatal("Streams with the same prefix and count built a second family")
	}
	for _, c := range []struct {
		prefix string
		n      int
	}{{"m.", 9}, {"m.1", 4}, {"m", 4}, {"", 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Streams(%q, %d) after Streams(\"m.\", 8) did not panic", c.prefix, c.n)
				}
			}()
			k.Streams(c.prefix, c.n)
		}()
	}
}

// TestStreamsAllocateOncePerFamily pins the point of the family: its cost
// does not grow in allocations with n.
func TestStreamsAllocateOncePerFamily(t *testing.T) {
	k := NewKernel(WithSeed(1))
	allocs := testing.AllocsPerRun(10, func() {
		k.families = k.families[:0]
		k.Streams("mobility.", 4096)
	})
	if allocs > 3 {
		t.Fatalf("Streams(4096) makes %.0f allocations, want <= 3", allocs)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	names := []string{"a", "b", "ab", "ba", "mobility", "churn", "workload"}
	seen := make(map[int64]string, len(names))
	for _, n := range names {
		s := deriveSeed(42, n)
		if prev, ok := seen[s]; ok {
			t.Fatalf("deriveSeed collision: %q and %q", prev, n)
		}
		seen[s] = n
	}
}

func TestDeriveSeedNonNegativeProperty(t *testing.T) {
	f := func(root int64, name string) bool {
		return deriveSeed(root, name) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventQueueOrderingProperty(t *testing.T) {
	// Property: regardless of the (bounded) delays scheduled, handlers
	// observe a non-decreasing clock.
	f := func(delays []uint16) bool {
		k := NewKernel()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			k.After(time.Duration(d)*time.Millisecond, "p", func(kk *Kernel) {
				if kk.Now() < last {
					ok = false
				}
				last = kk.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFireOrderIsStableSortByWhenSeqProperty drives the heap with a seeded
// random mix — bursts at equal timestamps, handlers that schedule (also at
// exactly Now) and cancel, RunUntil stops landing exactly on due times, and
// a horizon that cuts the tail off — and requires the fire order to be the
// scheduling order stably sorted by due time, i.e. sorted by (when, seq).
func TestFireOrderIsStableSortByWhenSeqProperty(t *testing.T) {
	type sched struct {
		when      time.Duration
		h         *Event
		fired     bool
		cancelled bool
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		horizon := time.Duration(20+rng.Intn(60)) * time.Millisecond
		k := NewKernel(WithHorizon(horizon))
		var all []*sched // index = scheduling order = kernel seq
		var order []int  // ids in fire order
		budget := 3000

		var add func(d time.Duration)
		add = func(d time.Duration) {
			id := len(all)
			s := &sched{when: k.Now() + d}
			all = append(all, s)
			s.h = k.After(d, "p", func(kk *Kernel) {
				if kk.Now() != s.when {
					t.Fatalf("seed %d: event %d due %v fired at %v", seed, id, s.when, kk.Now())
				}
				s.fired = true
				order = append(order, id)
				for c := rng.Intn(4); c > 0 && budget > 0; c-- {
					budget--
					// Coarse delays make equal timestamps the common case;
					// zero lands on the instant being drained.
					add(time.Duration(rng.Intn(6)) * time.Millisecond)
				}
				if rng.Intn(3) == 0 {
					// Cancel only a still-queued event: a handle is not
					// valid past its fire or collection.
					if v := all[rng.Intn(len(all))]; !v.fired && !v.cancelled {
						v.cancelled = kk.Cancel(v.h)
					}
				}
			})
		}
		for i := 0; i < 50; i++ {
			add(time.Duration(rng.Intn(30)) * time.Millisecond)
		}

		// Step to exact due times, checking the boundary is inclusive.
		for step := 0; step < 5; step++ {
			stop := all[rng.Intn(len(all))].when
			if stop < k.Now() || stop > horizon {
				continue
			}
			k.RunUntil(stop)
			if k.Now() != stop {
				t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, stop, k.Now())
			}
			for id, s := range all {
				if due := s.when <= stop && !s.cancelled; s.fired != due {
					t.Fatalf("seed %d: after RunUntil(%v) event %d (due %v) fired=%v", seed, stop, id, s.when, s.fired)
				}
			}
			if next, ok := k.NextEventAt(); ok && next <= stop {
				t.Fatalf("seed %d: RunUntil(%v) left an event due at %v", seed, stop, next)
			}
		}
		if end := k.Run(); end != horizon {
			t.Fatalf("seed %d: Run ended at %v, horizon %v", seed, end, horizon)
		}

		var want []int
		for id, s := range all {
			if !s.cancelled && s.when <= horizon {
				want = append(want, id)
			}
		}
		slices.SortStableFunc(want, func(a, b int) int {
			return int(all[a].when - all[b].when)
		})
		if !slices.Equal(order, want) {
			t.Fatalf("seed %d: fire order diverges from the stable sort by (when, seq) (%d fired, %d expected)", seed, len(order), len(want))
		}
		if len(order) < 100 {
			t.Fatalf("seed %d: only %d events fired; the mix is too thin to mean anything", seed, len(order))
		}
	}
}

func TestEventsFiredCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.After(time.Duration(i)*time.Second, "e", func(*Kernel) {})
	}
	e := k.After(time.Minute, "cancelled", func(*Kernel) {})
	k.Cancel(e)
	k.Run()
	if k.EventsFired() != 7 {
		t.Fatalf("EventsFired() = %d, want 7", k.EventsFired())
	}
}

func TestFreelistRecyclesFiredEvents(t *testing.T) {
	k := NewKernel()
	e1 := k.After(time.Second, "first", func(*Kernel) {})
	k.Run()
	if len(k.pool.free) != 1 {
		t.Fatalf("freelist size = %d after fire, want 1", len(k.pool.free))
	}
	if k.pool.free[0].fire != nil {
		t.Fatal("recycled event retains its handler closure")
	}
	e2 := k.After(time.Second, "second", func(*Kernel) {})
	if e1 != e2 {
		t.Fatal("second scheduling did not reuse the fired event")
	}
	if e2.Fired() || e2.Cancelled() || e2.Label() != "second" {
		t.Fatalf("reused event not reset: fired=%v cancelled=%v label=%q",
			e2.Fired(), e2.Cancelled(), e2.Label())
	}
	k.Run()
	if k.EventsFired() != 2 {
		t.Fatalf("EventsFired() = %d, want 2", k.EventsFired())
	}
}

func TestFreelistCollectsCancelledEvents(t *testing.T) {
	k := NewKernel()
	e := k.After(time.Second, "doomed", func(*Kernel) { t.Fatal("cancelled event fired") })
	k.Cancel(e)
	k.Run()
	if len(k.pool.free) != 1 {
		t.Fatalf("freelist size = %d after cancelled collection, want 1", len(k.pool.free))
	}
	if !e.Cancelled() {
		t.Fatal("handle lost cancelled state before reuse")
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	// Warm up: one fired event seeds the event pool.
	k.After(0, "warm", func(*Kernel) {})
	k.Run()
	fn := func(*Kernel) {}
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			k.After(0, "hot", fn)
			k.Run()
		}
	}); n != 0 {
		t.Errorf("200 steady-state schedule+fire cycles allocate %.0f times, want 0", n)
	}
	// The record form: a pointer to a record that is its own timeout.
	rec := &countTimer{}
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			k.AfterTimer(0, "record", rec)
			k.Run()
		}
	}); n != 0 {
		t.Errorf("200 steady-state record schedule+fire cycles allocate %.0f times, want 0", n)
	}
	if rec.fired == 0 {
		t.Fatal("record timer never fired")
	}
}

// countTimer is a record timer that counts its firings and, when log is
// set, appends its id to it.
type countTimer struct {
	id    int
	fired int
	log   *[]int
}

func (c *countTimer) Fire(*Kernel) {
	c.fired++
	if c.log != nil {
		*c.log = append(*c.log, c.id)
	}
}

func TestCancelledRecordTimerNeverFires(t *testing.T) {
	k := NewKernel()
	rec := &countTimer{}
	e := k.AfterTimer(time.Second, "doomed", rec)
	if !k.Cancel(e) {
		t.Fatal("Cancel of a pending record timer returned false")
	}
	k.AfterTimer(2*time.Second, "kept", &countTimer{})
	k.Run()
	if rec.fired != 0 {
		t.Fatalf("cancelled record timer fired %d times", rec.fired)
	}
	if !e.Cancelled() || e.Fired() {
		t.Fatalf("handle state fired=%v cancelled=%v", e.Fired(), e.Cancelled())
	}
	if k.EventsFired() != 1 {
		t.Fatalf("EventsFired() = %d, want 1", k.EventsFired())
	}
}

// TestRecordAndFuncEventsShareOneOrder: record timers and handlers go
// through one queue, so a seeded mix of both, with equal due times,
// negative delays and scheduling from inside firings, fires as a stable
// sort by due time of the scheduling order.
func TestRecordAndFuncEventsShareOneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := NewKernel()
	type due struct {
		when time.Duration
		id   int
	}
	var scheduled []due
	var fired []int
	next := 0
	var schedule func(kk *Kernel, depth int)
	schedule = func(kk *Kernel, depth int) {
		id := next
		next++
		d := time.Duration(rng.Intn(5)-1) * time.Second // -1s clamps to now
		scheduled = append(scheduled, due{kk.Now() + max(d, 0), id})
		spawn := depth < 2 && rng.Intn(3) == 0
		if id%2 == 0 {
			kk.AfterTimer(d, "record", &spawnTimer{countTimer{id: id, log: &fired}, spawn, depth, schedule})
			return
		}
		kk.After(d, "func", func(k2 *Kernel) {
			fired = append(fired, id)
			if spawn {
				schedule(k2, depth+1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		schedule(k, 0)
	}
	k.Run()
	slices.SortStableFunc(scheduled, func(a, b due) int { return int(a.when - b.when) })
	if len(fired) != len(scheduled) {
		t.Fatalf("%d fired, %d scheduled", len(fired), len(scheduled))
	}
	for i := range fired {
		if fired[i] != scheduled[i].id {
			t.Fatalf("fire %d is event %d, want %d (stable by due time)", i, fired[i], scheduled[i].id)
		}
	}
}

// spawnTimer is a record timer that may schedule a follow-up when fired.
type spawnTimer struct {
	countTimer
	spawn    bool
	depth    int
	schedule func(*Kernel, int)
}

func (s *spawnTimer) Fire(k *Kernel) {
	s.countTimer.Fire(k)
	if s.spawn {
		s.schedule(k, s.depth+1)
	}
}

func TestNextEventAt(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	k.After(5*time.Second, "b", func(*Kernel) {})
	k.After(2*time.Second, "a", func(*Kernel) {})
	if when, ok := k.NextEventAt(); !ok || when != 2*time.Second {
		t.Fatalf("next = (%v, %v), want (2s, true)", when, ok)
	}
	k.RunUntil(3 * time.Second)
	if when, ok := k.NextEventAt(); !ok || when != 5*time.Second {
		t.Fatalf("after draining: next = (%v, %v), want (5s, true)", when, ok)
	}
	k.RunUntil(10 * time.Second)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("drained queue reported a next event")
	}
}

// TestNextEventAtSkipsCancelledHeads: a cancelled timer never fires, so
// its deadline is never reported either — NextEventAt pops and recycles
// cancelled heads and answers with the earliest live event, or with none
// once only cancelled ones are left.
func TestNextEventAtSkipsCancelledHeads(t *testing.T) {
	k := NewKernel()
	a := k.After(time.Second, "a", func(*Kernel) { t.Fatal("cancelled event fired") })
	b := k.After(2*time.Second, "b", func(*Kernel) { t.Fatal("cancelled event fired") })
	k.After(3*time.Second, "c", func(*Kernel) {})
	k.Cancel(a)
	k.Cancel(b)
	if when, ok := k.NextEventAt(); !ok || when != 3*time.Second {
		t.Fatalf("next = (%v, %v), want (3s, true): a cancelled head was reported", when, ok)
	}
	if k.Pending() != 1 || len(k.pool.free) != 2 {
		t.Fatalf("%d pending and %d recycled, want the two cancelled heads popped into the pool",
			k.Pending(), len(k.pool.free))
	}
	k.RunUntil(3 * time.Second)
	d := k.After(time.Second, "d", func(*Kernel) { t.Fatal("cancelled event fired") })
	k.Cancel(d)
	if when, ok := k.NextEventAt(); ok {
		t.Fatalf("next = (%v, true), want none: only a cancelled event is queued", when)
	}
	if k.EventsFired() != 1 {
		t.Fatalf("EventsFired() = %d, want 1", k.EventsFired())
	}
}

// TestReserveSizesQueueOnce: after Reserve(n), scheduling n events takes
// no allocation at all — the heap and the event block are already sized
// — and events queued before the Reserve keep their place in the order.
// The malloc count is process-wide, so the runtime's own rare allocation
// is told apart the way radio's zero gate does it: two fresh kernels, and
// only two non-zero counts fail.
func TestReserveSizesQueueOnce(t *testing.T) {
	const n = 1000
	type due struct {
		when time.Duration
		id   int
	}
	run := func() (allocs uint64, scheduled []due, fired []int) {
		k := NewKernel()
		scheduled, fired = make([]due, 0, n+2), make([]int, 0, n+2)
		schedule := func(rec *countTimer, when time.Duration) {
			rec.log = &fired
			k.AfterTimer(when, "reserve", rec)
			scheduled = append(scheduled, due{when, rec.id})
		}
		schedule(&countTimer{id: -1}, 3*time.Millisecond)
		schedule(&countTimer{id: -2}, 0)
		recs := make([]countTimer, n)
		for i := range recs {
			recs[i].id = i
		}
		k.Reserve(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range recs {
			schedule(&recs[i], time.Duration(i%7)*time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		if k.Pending() != n+2 {
			t.Fatalf("%d events pending, want %d", k.Pending(), n+2)
		}
		k.Run()
		return after.Mallocs - before.Mallocs, scheduled, fired
	}
	first, _, _ := run()
	second, scheduled, fired := run()
	if first != 0 && second != 0 {
		t.Errorf("scheduling %d events after Reserve(%d) allocates %d and then %d times, want 0", n, n, first, second)
	}
	slices.SortStableFunc(scheduled, func(a, b due) int { return cmp.Compare(a.when, b.when) })
	for i, d := range scheduled {
		if fired[i] != d.id {
			t.Fatalf("firing %d: id %d, want %d (a stable sort by due time)", i, fired[i], d.id)
		}
	}
}
