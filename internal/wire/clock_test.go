package wire

import (
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/sim"
)

// TestClockFiresScheduledEvents maps virtual time onto wall time: an
// event scheduled 30 ms out must fire within a generous real-time bound.
func TestClockFiresScheduledEvents(t *testing.T) {
	k := sim.NewKernel()
	var fired atomic.Bool
	var at time.Duration
	k.After(30*time.Millisecond, "test.fire", func(kk *sim.Kernel) {
		at = kk.Now()
		fired.Store(true)
	})
	c := NewClock(k)
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("event never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if at < 30*time.Millisecond {
		t.Fatalf("event fired at virtual %v, before its due time", at)
	}
	if at > time.Second {
		t.Fatalf("event fired at virtual %v, far past its due time", at)
	}
}

// TestClockInjectRunsOnKernelGoroutine proves injected closures see the
// kernel single-threaded: an injection can schedule follow-ups and read
// Now, and kernel state mutated only from handlers stays consistent
// under the race detector.
func TestClockInjectRunsOnKernelGoroutine(t *testing.T) {
	k := sim.NewKernel()
	c := NewClock(k)
	// Kernel-confined state: handlers and injections increment without
	// atomics; the race detector fails the test if confinement breaks.
	counter := 0
	k.After(5*time.Millisecond, "test.tick", func(kk *sim.Kernel) { counter++ })
	c.Start()

	done := make(chan struct{})
	if !c.Inject(func(kk *sim.Kernel) {
		counter++
		kk.After(time.Millisecond, "test.follow", func(*sim.Kernel) {
			counter++
			close(done)
		})
	}) {
		t.Fatal("inject refused on a running clock")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("injected follow-up never ran")
	}
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if counter < 2 {
		t.Fatalf("counter = %d, want >= 2", counter)
	}
}

// TestClockStopDrainsAndRefusesInjection: after Stop, Inject reports
// false and the loop has exited.
func TestClockStopDrainsAndRefusesInjection(t *testing.T) {
	k := sim.NewKernel()
	c := NewClock(k)
	c.Start()
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Inject(func(*sim.Kernel) {}) {
		t.Fatal("inject accepted after stop")
	}
	// Idempotent.
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClockVirtualMatchesWall: after ~100 ms of wall time, the kernel's
// virtual clock must have advanced commensurately (events drive
// RunUntil, which advances Now even with an empty queue).
func TestClockVirtualMatchesWall(t *testing.T) {
	k := sim.NewKernel()
	c := NewClock(k)
	c.Start()
	time.Sleep(100 * time.Millisecond)
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if now := k.Now(); now < 50*time.Millisecond {
		t.Fatalf("virtual clock %v lags wall time badly", now)
	}
}

// TestClockWakesOnTime chains 200 kernel events at offsets of 0.1–3 ms
// and records how late each ran (Elapsed − due). Woken by a runtime timer,
// which Linux's netpoller rounds up to whole milliseconds, the median is
// about 0.6 ms; the deadline must keep it under 300 µs there. Elsewhere
// the test only logs.
func TestClockWakesOnTime(t *testing.T) {
	const events = 200
	k := sim.NewKernel()
	c := NewClock(k)
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 0, events)
	done := make(chan struct{})
	var due time.Duration
	var step func(*sim.Kernel)
	schedule := func(kk *sim.Kernel) {
		due = c.Elapsed() + 100*time.Microsecond + time.Duration(rng.Int63n(int64(2900*time.Microsecond)))
		if _, err := kk.At(due, "test.late", step); err != nil {
			panic(err)
		}
	}
	step = func(kk *sim.Kernel) {
		late = append(late, c.Elapsed()-due)
		if len(late) == events {
			close(done)
			return
		}
		schedule(kk)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if !c.Inject(schedule) {
		t.Fatal("inject refused on a running clock")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("event chain never finished")
	}
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	slices.Sort(late)
	p50, p90 := late[events/2], late[events*9/10]
	t.Logf("lateness over %d events: p50 %v, p90 %v, max %v", events, p50, p90, late[events-1])
	if runtime.GOOS == "linux" && p50 >= 300*time.Microsecond {
		t.Errorf("median lateness %v, want < 300µs", p50)
	}
}

// TestClockStopReleasesEverything: Start/Stop cycles leak neither file
// descriptors nor goroutines, since chaos campaigns restart daemons and
// every started clock holds a deadline source.
func TestClockStopReleasesEverything(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // no /proc: only goroutines are checked
		}
		return len(ents)
	}
	fd0, g0 := fds(), runtime.NumGoroutine()
	for range 100 {
		k := sim.NewKernel()
		k.After(time.Hour, "test.pending", func(*sim.Kernel) {}) // keeps the deadline armed
		c := NewClock(k)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if err := c.Stop(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fd1 := fds(); fd1 > fd0 {
		t.Errorf("%d open file descriptors after 100 clock restarts, %d before", fd1, fd0)
	}
	// Stop returns once the loop closes done, a moment before its
	// goroutine is gone, so give the last one time to finish exiting.
	g1 := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); g1 > g0 && time.Now().Before(deadline); g1 = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if g1 > g0 {
		t.Errorf("%d goroutines after 100 clock restarts, %d before", g1, g0)
	}
}
