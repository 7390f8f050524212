// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate every other simulation package builds on. It
// owns a virtual clock, a priority queue of pending events, and a family of
// deterministic random number streams derived from a single root seed.
// Nothing in this package (or in any package built on it) reads wall-clock
// time: two runs constructed with the same seed and the same schedule of
// events produce byte-identical results.
//
// Time is represented as time.Duration measured from the start of the
// simulation (t = 0). Events scheduled for the same instant fire in the
// order they were scheduled (FIFO tie-breaking via a monotonic sequence
// number), which keeps protocol traces stable across runs.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"strconv"
	"strings"
	"time"
)

// Handler is the callback invoked when an event fires. It receives the
// kernel so it can schedule follow-up events and read the current time.
type Handler func(k *Kernel)

// Fire runs the handler, so a Handler is a Timer.
func (h Handler) Fire(k *Kernel) { h(k) }

// Timer is anything the kernel can fire. Besides a Handler it is the way
// to schedule a record pointer (AfterTimer): a per-query or per-round
// record whose Fire method is its timeout needs no closure, so arming it
// allocates nothing.
type Timer interface {
	Fire(k *Kernel)
}

// Event is a scheduled callback. The zero value is inert; events are
// created via Kernel.At / Kernel.After / Kernel.AfterTimer.
//
// Fired events are recycled through the kernel's freelist: a handle is
// valid for Cancel and state queries until its event fires (or, if
// cancelled, until the cancellation is collected from the queue). A
// handle retained past that point keeps reporting its final state only
// until the kernel reuses the event for a new scheduling — retaining
// handles across fire time is unsupported.
type Event struct {
	when   time.Duration
	fire   Timer
	label  string
	fired  bool
	cancel bool
}

// When returns the virtual time at which the event is (or was) due.
func (e *Event) When() time.Duration { return e.when }

// Label returns the diagnostic label supplied at scheduling time.
func (e *Event) Label() string { return e.label }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// Fired reports whether the event's handler has run.
func (e *Event) Fired() bool { return e.fired }

// heapSlot is one entry of the event heap. It carries the (when, seq)
// ordering key by value, so sifting compares slots without dereferencing
// the events they point at.
type heapSlot struct {
	when time.Duration
	seq  uint64
	ev   *Event
}

// before reports whether a orders strictly ahead of b. seq is unique per
// kernel, so (when, seq) is a total order: pop order is independent of the
// heap's shape, and any correct heap fires events in the same sequence.
func (a heapSlot) before(b heapSlot) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap of slots ordered by (when, seq): node i's
// children are 4i+1 … 4i+4. The wider fan-out halves the depth of the
// binary layout, and the four children share a cache line pair.
type eventHeap []heapSlot

// push inserts s, sifting it up from the tail.
func (h *eventHeap) push(s heapSlot) {
	q := append(*h, s)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
	*h = q
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = heapSlot{} // drop the event pointer from the vacated tail
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root, moving the smallest child
	// up into the hole until last fits.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated components run inside event handlers on the
// kernel's goroutine, which is the standard structure for deterministic
// network simulation (GloMoSim, ns-2 and friends are organised the same
// way).
type Kernel struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	root    int64
	streams map[string]*rand.Rand
	// families are the bulk stream families (Streams): the members have
	// no map entry of their own, so Stream looks a miss up here.
	families []family
	stopped  bool
	horizon  time.Duration
	events   uint64 // total events fired

	// free recycles fired (or collected-cancelled) events so steady-state
	// scheduling allocates nothing: the heap pops an event, its handler
	// runs, and the next At/After reuses the same struct.
	free []*Event
	// fresh hands out never-used events, a block at a time, for the
	// schedules the freelist cannot serve (set-up, a growing queue).
	fresh Slab[Event]
}

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the root seed from which all named random streams derive.
// The default seed is 1.
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.root = seed }
}

// WithHorizon caps the virtual time of the run; events scheduled beyond the
// horizon are accepted but never fire. A zero horizon (the default) means
// "no cap": Run executes until the queue drains or Stop is called.
func WithHorizon(h time.Duration) Option {
	return func(k *Kernel) { k.horizon = h }
}

// NewKernel constructs an empty kernel at t = 0.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{
		root:    1,
		streams: make(map[string]*rand.Rand),
	}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsFired returns the number of events whose handlers have executed.
func (k *Kernel) EventsFired() uint64 { return k.events }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextEventAt returns the due time of the earliest queued event, or false
// when the queue is empty. A real-time executive (internal/wire) uses it
// to sleep exactly until the next event instead of busy-polling; a
// cancelled head event may cause one early wake-up, which is harmless.
func (k *Kernel) NextEventAt() (time.Duration, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].when, true
}

// ErrPastEvent is returned when an event is scheduled before Now.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute virtual time t. The label appears in
// diagnostics only. Scheduling strictly in the past is rejected; scheduling
// at exactly Now is allowed and runs after the current handler returns.
func (k *Kernel) At(t time.Duration, label string, fn Handler) (*Event, error) {
	if t < k.now {
		return nil, fmt.Errorf("%w: at=%v now=%v label=%q", ErrPastEvent, t, k.now, label)
	}
	if fn == nil {
		return nil, fmt.Errorf("sim: nil handler for event %q", label)
	}
	return k.schedule(t, label, fn), nil
}

// schedule queues fire at t, which the caller has checked is not in the
// past: every At, After and AfterTimer ends here, so they share one queue,
// one freelist and one (when, seq) order.
func (k *Kernel) schedule(t time.Duration, label string, fire Timer) *Event {
	e := k.acquire()
	e.when, e.fire, e.label = t, fire, label
	k.queue.push(heapSlot{when: t, seq: k.seq, ev: e})
	k.seq++
	return e
}

// acquire returns a recycled event or a fresh one. State is reset here,
// at acquisition time — not at recycle time — so a stale handle keeps
// reporting its final fired/cancelled state until the struct is reused.
func (k *Kernel) acquire() *Event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*e = Event{}
		return e
	}
	return k.fresh.New()
}

// recycle returns a popped event to the freelist. The timer reference is
// dropped immediately so a parked event does not pin its closure or record
// (and everything that references) until reuse.
func (k *Kernel) recycle(e *Event) {
	e.fire = nil
	k.free = append(k.free, e)
}

// After schedules fn to run d from now. Negative d is clamped to zero so
// callers can pass small jittered offsets without pre-checking the sign.
func (k *Kernel) After(d time.Duration, label string, fn Handler) *Event {
	if d < 0 {
		d = 0
	}
	e, err := k.At(k.now+d, label, fn)
	if err != nil {
		// Unreachable: now+d >= now and fn nil-ness is the only other
		// failure; guard it loudly anyway.
		panic(fmt.Sprintf("sim: After failed: %v", err))
	}
	return e
}

// AfterTimer schedules t.Fire to run d from now, with After's clamping.
// Passing a record pointer stores it in the event as is, so a record that
// carries its own timeout is armed without allocating.
func (k *Kernel) AfterTimer(d time.Duration, label string, t Timer) *Event {
	if t == nil {
		panic(fmt.Sprintf("sim: nil timer for event %q", label))
	}
	return k.schedule(k.now+max(d, 0), label, t)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned stop function is called or the run ends. Period must
// be positive.
func (k *Kernel) Every(period time.Duration, label string, fn Handler) (stop func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: non-positive period %v for %q", period, label)
	}
	stopped := false
	var tick Handler
	tick = func(kk *Kernel) {
		if stopped {
			return
		}
		fn(kk)
		if !stopped {
			kk.After(period, label, tick)
		}
	}
	k.After(period, label, tick)
	return func() { stopped = true }, nil
}

// Cancel marks the event so its handler will not run. Cancelling an event
// that already fired is a no-op and returns false.
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.fired || e.cancel {
		return false
	}
	e.cancel = true
	return true
}

// Stop halts Run after the current handler returns. Pending events remain
// queued (useful for inspecting what was outstanding).
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in order until the queue is empty, Stop is called, or
// the horizon is exceeded. It returns the final virtual time.
func (k *Kernel) Run() time.Duration {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := k.queue.pop()
		if e.cancel {
			k.recycle(e)
			continue
		}
		if k.horizon > 0 && e.when > k.horizon {
			// Past the horizon: the run is over. Advance the clock to the
			// horizon so metrics normalised by elapsed time are exact. The
			// popped event is dropped un-fired and deliberately not
			// recycled: its handle must keep reporting Fired() == false.
			k.now = k.horizon
			return k.now
		}
		k.now = e.when
		e.fired = true
		k.events++
		e.fire.Fire(k)
		k.recycle(e)
	}
	if k.horizon > 0 && k.now < k.horizon && len(k.queue) == 0 {
		k.now = k.horizon
	}
	return k.now
}

// RunUntil executes events with due time <= t, then returns. It is the
// stepping primitive used by tests that interleave assertions with
// simulated time.
func (k *Kernel) RunUntil(t time.Duration) {
	for len(k.queue) > 0 && !k.stopped {
		if k.queue[0].when > t {
			break
		}
		e := k.queue.pop()
		if e.cancel {
			k.recycle(e)
			continue
		}
		k.now = e.when
		e.fired = true
		k.events++
		e.fire.Fire(k)
		k.recycle(e)
	}
	if k.now < t {
		k.now = t
	}
}

// Stream returns the named deterministic random stream, creating it on
// first use. Streams are derived from the root seed and the name, so adding
// a new consumer of randomness does not perturb existing streams — a
// property that keeps A/B comparisons between strategies honest.
//
// A stream is a *math/rand.Rand over a 16-byte PCG-DXSM generator
// (math/rand/v2.PCG) seeded with deriveSeed(root, name); creating one
// costs two small allocations and no warm-up, where a math/rand source is
// a 4.9 KB table seeded in ~1 800 dependent steps. Callers see only the
// math/rand API.
//
// A name that belongs to a family Streams created (prefix followed by a
// member index in strconv.Itoa form) returns that member: one name, one
// generator, however it was reached.
func (k *Kernel) Stream(name string) *rand.Rand {
	if r, ok := k.streams[name]; ok {
		return r
	}
	for _, f := range k.families {
		if i, ok := memberIndex(name, f.prefix, len(f.members)); ok {
			return f.members[i]
		}
	}
	src := new(pcgSource)
	src.Seed(deriveSeed(k.root, name))
	r := rand.New(src)
	k.streams[name] = r
	return r
}

// family is one bulk stream family: members[i] is the stream named
// prefix+strconv.Itoa(i).
type family struct {
	prefix  string
	members []*rand.Rand
}

// familyStream is one member's storage: the generator and the rand.Rand
// over it, side by side in the family's one array.
type familyStream struct {
	r   rand.Rand
	src pcgSource
}

// Streams returns the n streams named prefix+strconv.Itoa(i), i in
// [0, n), in index order — the per-node stream family of a world. Member
// i is seeded exactly as Stream(prefix+strconv.Itoa(i)) would seed it,
// but the family is carved from one array, with no name string and no
// map entry per member: three allocations for any n.
//
// A family is registered once. Stream on a member's name afterwards
// returns that member; a member Stream created before the family joins it
// as it is, with whatever it has drawn. Calling Streams again with the
// same prefix returns the registered family when n matches and panics
// otherwise, as it does for a prefix that extends or is extended by a
// registered one ("m." and "m.1" would both claim "m.12"): either way two
// generators would answer to one name.
func (k *Kernel) Streams(prefix string, n int) []*rand.Rand {
	if n < 0 {
		panic(fmt.Sprintf("sim: Streams(%q, %d): negative count", prefix, n))
	}
	for _, f := range k.families {
		switch {
		case f.prefix == prefix && len(f.members) == n:
			return f.members
		case strings.HasPrefix(f.prefix, prefix) || strings.HasPrefix(prefix, f.prefix):
			panic(fmt.Sprintf("sim: Streams(%q, %d) overlaps family Streams(%q, %d)",
				prefix, n, f.prefix, len(f.members)))
		}
	}
	members := make([]*rand.Rand, n)
	for name, r := range k.streams {
		if i, ok := memberIndex(name, prefix, n); ok {
			members[i] = r
		}
	}
	store := make([]familyStream, n)
	h := fnv1a(fnvRoot(k.root), prefix)
	var digits [20]byte
	for i := range members {
		if members[i] != nil {
			continue
		}
		s := &store[i]
		s.src.Seed(finishSeed(fnv1a(h, strconv.AppendInt(digits[:0], int64(i), 10))))
		s.r = *rand.New(&s.src)
		members[i] = &s.r
	}
	k.families = append(k.families, family{prefix: prefix, members: members})
	return members
}

// memberIndex reports whether name is prefix+strconv.Itoa(i) for some i
// in [0, n), and which.
func memberIndex(name, prefix string, n int) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok || rest == "" || len(rest) > 1 && rest[0] == '0' {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 || i >= n || rest[0] == '+' || rest[0] == '-' {
		return 0, false
	}
	return i, true
}

// pcgSource adapts math/rand/v2's PCG to math/rand.Source64.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() &^ (1 << 63)) }

// Seed sets the 128-bit state to (seed, seed·0x9E3779B97F4A7C15): the
// golden gamma is odd, so the low word is a bijection of the seed.
func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), uint64(seed)*0x9E3779B97F4A7C15)
}

// deriveSeed mixes the root seed with a name using FNV-1a so distinct names
// yield decorrelated streams.
func deriveSeed(root int64, name string) int64 {
	return finishSeed(fnv1a(fnvRoot(root), name))
}

// FNV-1a, the hash deriveSeed runs over the root seed and the name.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvRoot hashes the root seed's eight bytes, low byte first. FNV-1a is
// sequential, so the state after a shared prefix extends to each name
// of a family (Streams).
func fnvRoot(root int64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(root>>(8*i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// fnv1a extends the hash state h over the bytes of s.
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// finishSeed turns a hash into a seed: never zero, top bit cleared.
func finishSeed(h uint64) int64 {
	if h == 0 {
		h = fnvOffset64
	}
	return int64(h & 0x7fffffffffffffff)
}
