package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedKernel runs S independent sub-kernels in conservative
// lookahead-bounded lockstep — the classic conservative parallel
// discrete-event scheme: virtual time advances in windows [T, T+L) where
// L is the lookahead, the minimum delay of any cross-shard message the
// caller will ever Send (the caller states it; Send enforces it). Within
// a window each shard processes its own events, on whichever of
// EachShard's workers picks it up, with no synchronization at all; at
// the window barrier, cross-shard messages posted during the window are
// merged in the deterministic order (arrival time, sender shard, sender
// sequence) and scheduled onto their target kernels. Because every
// cross-shard send must carry at least the lookahead of delay, no
// message can arrive inside the window that produced it, so each shard's
// intra-window execution is causally closed — the merged execution is
// independent of how many workers there are and how they are scheduled
// (GOMAXPROCS=1 is the serial reference), independent of the window
// length, and identical to a single serial kernel processing the union
// of events in timestamp order (given distinct timestamps; ties within
// one shard keep that shard's deterministic seq order).
//
// Mailbox entries are pooled per sender shard, extending the kernel's
// event freelist discipline: a steady cross-shard message flow reaches a
// fixed working set and stops allocating.
type ShardedKernel struct {
	shards    []*Kernel
	lookahead time.Duration
	horizon   time.Duration

	// outbox[s] is written only by shard s (inside its window, on its
	// worker goroutine); the barrier drains all outboxes serially into
	// mail, its reused merge scratch.
	outbox [][]*shardMsg
	pool   [][]*shardMsg
	seq    []uint64
	mail   []*shardMsg

	onBarrier []func(t time.Duration)

	delivered uint64
	barriers  uint64

	// Introspection. mailRecv is a function of the event stream and so
	// deterministic; busy/stall/hist are wall-clock measurements taken
	// around each shard's window and vary run to run. winDur is per-window
	// scratch, reused so steady-state windows do not allocate.
	mailRecv []uint64
	busy     []int64
	stall    []int64
	hist     [][shardStallBuckets]uint64
	winDur   []time.Duration
}

// shardMsg is one cross-shard message awaiting barrier delivery.
type shardMsg struct {
	when        time.Duration
	to          int
	label       string
	fn          Handler
	senderShard int
	senderSeq   uint64
}

// NewShardedKernel creates s sub-kernels with the given lookahead and
// horizon. Shard i is seeded with root+i·goldenGamma, so shard 0 of a
// one-shard kernel is seeded exactly like a serial kernel with the same
// root — the degenerate S=1 configuration reproduces serial runs
// byte-for-byte.
func NewShardedKernel(s int, lookahead, horizon time.Duration, seed int64) (*ShardedKernel, error) {
	if s <= 0 {
		return nil, fmt.Errorf("sim: need at least one shard, got %d", s)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: non-positive lookahead %v", lookahead)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon %v", horizon)
	}
	sk := &ShardedKernel{
		shards:    make([]*Kernel, s),
		lookahead: lookahead,
		horizon:   horizon,
		outbox:    make([][]*shardMsg, s),
		pool:      make([][]*shardMsg, s),
		seq:       make([]uint64, s),
		mailRecv:  make([]uint64, s),
		busy:      make([]int64, s),
		stall:     make([]int64, s),
		hist:      make([][shardStallBuckets]uint64, s),
		winDur:    make([]time.Duration, s),
	}
	const goldenGamma = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	for i := range sk.shards {
		sk.shards[i] = NewKernel(WithSeed(seed+int64(i)*goldenGamma), WithHorizon(horizon))
	}
	return sk, nil
}

// Shards returns the number of sub-kernels.
func (sk *ShardedKernel) Shards() int { return len(sk.shards) }

// Shard returns sub-kernel i. Schedule a shard's own events directly on
// it; only cross-shard communication must go through Send.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Lookahead returns the window length L.
func (sk *ShardedKernel) Lookahead() time.Duration { return sk.lookahead }

// OnBarrier registers a hook called serially at every window barrier,
// after mail delivery, with the barrier time. Hooks run on the caller's
// goroutine in registration order.
func (sk *ShardedKernel) OnBarrier(fn func(t time.Duration)) {
	sk.onBarrier = append(sk.onBarrier, fn)
}

// Barriers returns how many window barriers have executed.
func (sk *ShardedKernel) Barriers() uint64 { return sk.barriers }

// Delivered returns how many cross-shard messages have been handed off.
func (sk *ShardedKernel) Delivered() uint64 { return sk.delivered }

// Send posts a cross-shard message from shard `from`'s current time plus
// delay. The delay must be at least the lookahead — that is the
// conservative-synchronization contract that makes windows causally
// closed. Safe to call from shard `from`'s event handlers while the
// other shards' windows run (each sender owns its outbox and pool).
func (sk *ShardedKernel) Send(from, to int, delay time.Duration, label string, fn Handler) error {
	if from < 0 || from >= len(sk.shards) || to < 0 || to >= len(sk.shards) {
		return fmt.Errorf("sim: shard send %d->%d out of range", from, to)
	}
	if delay < sk.lookahead {
		return fmt.Errorf("sim: cross-shard delay %v below lookahead %v", delay, sk.lookahead)
	}
	var m *shardMsg
	if p := sk.pool[from]; len(p) > 0 {
		m = p[len(p)-1]
		sk.pool[from] = p[:len(p)-1]
	} else {
		m = &shardMsg{}
	}
	sk.seq[from]++
	*m = shardMsg{
		when:        sk.shards[from].Now() + delay,
		to:          to,
		label:       label,
		fn:          fn,
		senderShard: from,
		senderSeq:   sk.seq[from],
	}
	sk.outbox[from] = append(sk.outbox[from], m)
	return nil
}

// Run executes windows until the horizon, then returns the final time.
// When every shard is drained and no mail is in flight the remaining
// windows are skipped (sub-kernel clocks still land on the horizon).
func (sk *ShardedKernel) Run() time.Duration {
	for t := time.Duration(0); t < sk.horizon; {
		end := t + sk.lookahead
		if end > sk.horizon {
			end = sk.horizon
		}
		sk.step(end)
		t = end
		if sk.idle() {
			break
		}
	}
	for _, k := range sk.shards {
		k.RunUntil(sk.horizon)
	}
	return sk.horizon
}

// EachShard calls fn(i) once per shard index and returns when all calls
// have, sharing them among GOMAXPROCS-1 goroutines (at least one, at
// most one per shard, the caller's among them), each taking the next
// index as it finishes one. One core is left to the collector and the
// host: a lockstep run that keeps every core busy is as fast as its most
// disturbed core, and on two cores its rates repeat half as well as a
// serial run's (EXPERIMENTS.md). fn(i) must touch only shard i's state.
func (sk *ShardedKernel) EachShard(fn func(i int)) {
	n := len(sk.shards)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)-1) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// step advances every shard to the window end and runs the barrier. A
// run has few windows, so EachShard's workers need not outlive one.
func (sk *ShardedKernel) step(end time.Duration) {
	sk.EachShard(func(i int) {
		t0 := time.Now()
		sk.shards[i].RunUntil(end)
		sk.winDur[i] = time.Since(t0)
	})
	sk.recordWindow()
	sk.barrier(end)
}

// recordWindow folds one window's wall measurements into the per-shard
// accounting. A shard's stall is its gap to the window's slowest shard —
// the time its worker would wait at the lockstep barrier had every
// shard a worker of its own.
func (sk *ShardedKernel) recordWindow() {
	slowest := slices.Max(sk.winDur)
	for i, d := range sk.winDur {
		sk.busy[i] += int64(d)
		st := int64(slowest - d)
		sk.stall[i] += st
		sk.hist[i][stallBucket(st)]++
	}
}

// stallBucket maps a stall to its log2 histogram bucket: bucket 0 holds
// zero-stall windows, bucket i>0 holds stalls in [2^(i-1), 2^i) ns, and
// the last bucket absorbs everything from ~1s up.
func stallBucket(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= shardStallBuckets {
		b = shardStallBuckets - 1
	}
	return b
}

// barrier merges the window's cross-shard mail in deterministic order
// (arrival time, sender shard, sender sequence), schedules it onto the
// target kernels, recycles the entries, and fires the barrier hooks.
func (sk *ShardedKernel) barrier(end time.Duration) {
	mail := sk.mail[:0]
	for s := range sk.outbox {
		mail = append(mail, sk.outbox[s]...)
		sk.outbox[s] = sk.outbox[s][:0]
	}
	slices.SortFunc(mail, mailOrder)
	for _, m := range mail {
		// Arrival is at or after the barrier (delay >= lookahead), so the
		// target has not passed it. At assigns the target kernel's next seq
		// in merge order, which is what makes the handoff deterministic
		// under any worker scheduling.
		if _, err := sk.shards[m.to].At(m.when, m.label, m.fn); err != nil {
			panic(fmt.Sprintf("sim: barrier delivery at %v to shard %d: %v", m.when, m.to, err))
		}
		sk.delivered++
		sk.mailRecv[m.to]++
		sender := m.senderShard
		*m = shardMsg{}
		sk.pool[sender] = append(sk.pool[sender], m)
	}
	sk.mail = mail
	sk.barriers++
	for _, fn := range sk.onBarrier {
		fn(end)
	}
}

// mailOrder is the barrier's merge order: (arrival time, sender shard,
// sender sequence) — total, since a sender's sequence never repeats.
func mailOrder(a, b *shardMsg) int {
	return cmp.Or(
		cmp.Compare(a.when, b.when),
		cmp.Compare(a.senderShard, b.senderShard),
		cmp.Compare(a.senderSeq, b.senderSeq),
	)
}

// idle reports whether every shard's queue is empty and no mail is
// buffered — nothing can create further work.
func (sk *ShardedKernel) idle() bool {
	for _, k := range sk.shards {
		if k.Pending() > 0 {
			return false
		}
	}
	for _, ob := range sk.outbox {
		if len(ob) > 0 {
			return false
		}
	}
	return true
}

// shardStallBuckets is the length of a shard's barrier-stall histogram
// (log2 buckets up to ~1s; see stallBucket).
const shardStallBuckets = 32

// ShardStats is one shard's run-introspection snapshot. EventsFired,
// MailSent, and MailRecv are functions of the event stream — identical
// across same-seed runs and safe for deterministic output. BusyNs,
// StallNs, and StallHist are wall-clock measurements that vary run to
// run: report them to stderr or bench files, never into byte-compared
// output.
type ShardStats struct {
	Shard       int
	EventsFired uint64
	MailSent    uint64
	MailRecv    uint64
	BusyNs      int64
	StallNs     int64
	StallHist   [shardStallBuckets]uint64
}

// ShardedStats aggregates per-shard snapshots with two imbalance gauges:
// max-over-mean ratios (1.0 = perfectly balanced). EventImbalance is
// deterministic (event counts); WallImbalance is wall-clock.
type ShardedStats struct {
	Shards         []ShardStats
	Barriers       uint64
	Delivered      uint64
	EventImbalance float64
	WallImbalance  float64
}

// Stats snapshots the kernel's run introspection. Call it after Run
// returns (or from a barrier hook); it must not race a window.
func (sk *ShardedKernel) Stats() ShardedStats {
	st := ShardedStats{
		Shards:    make([]ShardStats, len(sk.shards)),
		Barriers:  sk.barriers,
		Delivered: sk.delivered,
	}
	var evMax, evSum, wallMax, wallSum float64
	for i, k := range sk.shards {
		s := ShardStats{
			Shard:       i,
			EventsFired: k.EventsFired(),
			MailSent:    sk.seq[i],
			MailRecv:    sk.mailRecv[i],
			BusyNs:      sk.busy[i],
			StallNs:     sk.stall[i],
			StallHist:   sk.hist[i],
		}
		st.Shards[i] = s
		evSum += float64(s.EventsFired)
		evMax = maxf(evMax, float64(s.EventsFired))
		wallSum += float64(s.BusyNs)
		wallMax = maxf(wallMax, float64(s.BusyNs))
	}
	st.EventImbalance = imbalance(evMax, evSum, len(sk.shards))
	st.WallImbalance = imbalance(wallMax, wallSum, len(sk.shards))
	return st
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// imbalance is max/mean, defined as 1 (balanced) when nothing happened.
func imbalance(max, sum float64, n int) float64 {
	if sum == 0 {
		return 1
	}
	return max * float64(n) / sum
}
