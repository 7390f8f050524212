package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedKernel is S independent kernels run to a common horizon on a
// worker pool. The shards share nothing — no message, clock or queue
// crosses from one to another — so each shard's execution is a pure
// function of its seed and of what was scheduled on it, whatever the
// worker count (GOMAXPROCS=1 is the serial reference) and whichever
// worker picks it up.
type ShardedKernel struct {
	shards  []*Kernel
	horizon time.Duration
	runs    uint64
	busy    []int64 // wall ns each shard's kernel has run, over every Run
}

// goldenGamma spaces the shard seeds (0x9E3779B97F4A7C15 as int64).
const goldenGamma = int64(-0x61C8864680B583EB)

// NewShardedKernel creates s kernels with the given horizon. Shard i is
// seeded with root+i·goldenGamma, so shard 0 is seeded exactly like a
// serial kernel with the same root: the one-shard configuration
// reproduces serial runs byte for byte.
//
// lookahead is ignored (there are no windows); the parameter survives
// only because the frozen bench/ module passes it (bench/probes.go:99).
func NewShardedKernel(s int, lookahead, horizon time.Duration, seed int64) (*ShardedKernel, error) {
	if s <= 0 {
		return nil, fmt.Errorf("sim: need at least one shard, got %d", s)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon %v", horizon)
	}
	sk := &ShardedKernel{
		shards:  make([]*Kernel, s),
		horizon: horizon,
		busy:    make([]int64, s),
	}
	for i := range sk.shards {
		sk.shards[i] = NewKernel(WithSeed(seed+int64(i)*goldenGamma), WithHorizon(horizon))
	}
	return sk, nil
}

// Shard returns kernel i.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Barriers returns how many times Run has joined its workers — one per
// Run. It survives only because the frozen bench/ module divides a Run's
// wall time by it (bench/probes.go:104).
func (sk *ShardedKernel) Barriers() uint64 { return sk.runs }

// Run runs every shard to the horizon under EachShard and returns it.
func (sk *ShardedKernel) Run() time.Duration {
	sk.EachShard(func(i int) {
		t0 := time.Now()
		sk.shards[i].RunUntil(sk.horizon)
		sk.busy[i] += int64(time.Since(t0))
	})
	sk.runs++
	return sk.horizon
}

// EachShard calls fn(i) once per shard index and returns when all calls
// have, sharing them among GOMAXPROCS-1 goroutines (at least one, at
// most one per shard, the caller's among them), each taking the next
// index as it finishes one. One core is left to the collector and the
// host: a run that keeps every core busy is as fast as its most
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

// ShardStats is one shard's run snapshot. EventsFired is a function of
// the event stream — identical across same-seed runs and safe for
// deterministic output. BusyNs (wall time inside the shard's kernel) and
// StallNs (the slowest shard's BusyNs minus this one's: what a worker of
// its own would idle before the join) vary run to run: report them to
// stderr or bench files, never into byte-compared output.
type ShardStats struct {
	Shard       int
	EventsFired uint64
	BusyNs      int64
	StallNs     int64
}

// ShardedStats aggregates per-shard snapshots with two imbalance gauges:
// max-over-mean ratios (1.0 = perfectly balanced). EventImbalance is
// deterministic (event counts); WallImbalance is wall-clock.
type ShardedStats struct {
	Shards         []ShardStats
	EventImbalance float64
	WallImbalance  float64
}

// Stats snapshots the run introspection. Call it after Run returns.
func (sk *ShardedKernel) Stats() ShardedStats {
	st := ShardedStats{Shards: make([]ShardStats, len(sk.shards))}
	slowest := slices.Max(sk.busy)
	var evMax, evSum, wallSum float64
	for i, k := range sk.shards {
		s := ShardStats{Shard: i, EventsFired: k.EventsFired(), BusyNs: sk.busy[i], StallNs: slowest - sk.busy[i]}
		st.Shards[i] = s
		evSum += float64(s.EventsFired)
		evMax = max(evMax, float64(s.EventsFired))
		wallSum += float64(s.BusyNs)
	}
	st.EventImbalance = imbalance(evMax, evSum, len(sk.shards))
	st.WallImbalance = imbalance(float64(slowest), wallSum, len(sk.shards))
	return st
}

// imbalance is max/mean, defined as 1 (balanced) when nothing happened.
func imbalance(max, sum float64, n int) float64 {
	if sum == 0 {
		return 1
	}
	return max * float64(n) / sum
}
