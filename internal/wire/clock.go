// Package wire binds the simulator's protocol engines to real UDP
// sockets. The deterministic event kernel (internal/sim) becomes a
// real-time executive: virtual time is mapped 1:1 onto wall time elapsed
// since daemon start, so every TTR/TTP/TTN comparison the engine makes
// has exactly the simulator's semantics, while deliveries arrive from
// the network instead of from scheduled events.
//
// Threading model: the engine stays single-threaded on the kernel
// goroutine, exactly as in simulation. The socket read loop is the only
// other goroutine touching protocol state, and it does so exclusively by
// injecting closures into the clock, which runs them on the kernel
// goroutine between events. Nothing else crosses the boundary.
package wire

import (
	"fmt"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/sim"
)

// Clock drives a sim.Kernel against wall time. Virtual time t on the
// kernel corresponds to wall instant start+t; the loop sleeps until the
// next due event (or an injection) instead of busy-polling.
type Clock struct {
	k *sim.Kernel
	// dl wakes the loop when the earliest event falls due, by handing it
	// a wakeup over inject. It exists from Start until the loop exits.
	dl *deadline

	start  time.Time
	inject chan sim.Timer
	quit   chan struct{}
	done   chan struct{}

	startOnce sync.Once
	startErr  error
	quitOnce  sync.Once
}

// NewClock wraps k. Call Start to begin advancing it.
func NewClock(k *sim.Kernel) *Clock {
	return &Clock{
		k:      k,
		inject: make(chan sim.Timer, injectDepth),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start marks the epoch (virtual t=0) and launches the executive
// goroutine. Everything scheduled on the kernel before Start runs at its
// offset from the epoch. Start is idempotent and returns the first call's
// error: if the clock cannot get a deadline source, it never runs, and
// Inject refuses from then on.
func (c *Clock) Start() error {
	c.startOnce.Do(func() {
		if c.dl, c.startErr = newDeadline(c.wake); c.startErr != nil {
			c.startErr = fmt.Errorf("wire: clock: %w", c.startErr)
			c.quitOnce.Do(func() { close(c.quit) })
			close(c.done)
			return
		}
		c.start = time.Now()
		go c.loop()
	})
	return c.startErr
}

// Epoch returns the wall instant of virtual t=0 (zero before Start).
func (c *Clock) Epoch() time.Time { return c.start }

// Elapsed returns the current virtual time (wall time since Start).
func (c *Clock) Elapsed() time.Duration { return time.Since(c.start) }

// injectDepth is the capacity of the clock's inject queue, and of each
// record free list that feeds it: a list as deep as the queue keeps every
// record of a burst the queue absorbed, so the next burst allocates none.
const injectDepth = 1024

// Inject runs fn on the kernel goroutine at the current virtual instant.
// It is the only way other goroutines (socket readers, signal handlers)
// may touch engine state. Returns false if the clock has stopped and fn
// will never run.
func (c *Clock) Inject(fn func(*sim.Kernel)) bool { return c.injectTimer(sim.Handler(fn)) }

// injectTimer is Inject for a record: t.Fire runs on the kernel
// goroutine, and handing over a pointer allocates nothing.
func (c *Clock) injectTimer(t sim.Timer) bool {
	// Check quit first: a two-way select with both channels ready picks
	// randomly, and after Stop the refusal must be deterministic.
	select {
	case <-c.quit:
		return false
	default:
	}
	select {
	case <-c.quit:
		return false
	case c.inject <- t:
		return true
	}
}

// freeList recycles the records other goroutines hand to the kernel
// goroutine (receive and query records). It is a buffered channel, so
// get and put are safe from any goroutine; it allocates only when empty,
// is never pre-filled, and a record put into a full list is left to the
// collector.
type freeList[T any] chan *T

func (l freeList[T]) get() *T {
	select {
	case r := <-l:
		return r
	default:
		return new(T)
	}
}

func (l freeList[T]) put(r *T) {
	select {
	case l <- r:
	default:
	}
}

// wakeup is the record the deadline hands the loop: firing it does
// nothing, and receiving it makes the loop run what has fallen due.
type wakeup struct{}

func (wakeup) Fire(*sim.Kernel) {}

// wake hands the loop a wakeup without blocking. A full inject queue
// already guarantees the loop another pass, so a dropped wakeup loses
// nothing.
func (c *Clock) wake() {
	select {
	case c.inject <- wakeup{}:
	default:
	}
}

// Stop halts the executive and waits up to deadline for the loop to
// finish its current handler and exit. A deadline of zero waits
// indefinitely. Stop is idempotent; later calls just re-wait.
func (c *Clock) Stop(deadline time.Duration) error {
	c.quitOnce.Do(func() { close(c.quit) })
	if deadline <= 0 {
		<-c.done
		return nil
	}
	select {
	case <-c.done:
		return nil
	case <-time.After(deadline):
		return fmt.Errorf("wire: clock did not stop within %v", deadline)
	}
}

func (c *Clock) loop() {
	defer close(c.done)
	defer c.dl.close()
	armed := time.Duration(-1) // the due time dl is set for; -1 while disarmed
	for {
		// Fire everything due at the current wall offset, then move the
		// deadline to the next due event if that changed, and sleep until
		// it fires (a wakeup) or something else is injected.
		c.k.RunUntil(time.Since(c.start))
		next, ok := c.k.NextEventAt()
		switch {
		case !ok && armed >= 0:
			c.dl.disarm()
			armed = -1
		case ok && next != armed:
			c.dl.arm(next - time.Since(c.start))
			armed = next
		}

		select {
		case t := <-c.inject:
			// Advance the clock first so the injection (a datagram
			// delivery, typically) is stamped with the instant it
			// actually happened, then drain any backlog.
			c.k.RunUntil(time.Since(c.start))
			t.Fire(c.k)
		drain:
			for {
				select {
				case t := <-c.inject:
					t.Fire(c.k)
				default:
					break drain
				}
			}
		case <-c.quit:
			// Final drain: run everything already due so in-flight
			// handlers complete, then exit. Nothing new is admitted.
			c.k.RunUntil(time.Since(c.start))
			return
		}
	}
}
