package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedKernel runs S independent shards to a common horizon on a
// worker pool, each shard's whole life in one call (EachRegion). The
// shards share nothing — no message, clock or queue crosses from one to
// another — so each shard's execution is a pure function of its seed and
// of what was scheduled on it, whatever the worker count (GOMAXPROCS=1 is
// the serial reference) and whichever worker picks it up.
type ShardedKernel struct {
	seed    int64
	horizon time.Duration
	runs    uint64
	events  []uint64 // events each shard's kernel fired
	busy    []int64  // wall ns each shard spent running its kernel
}

// goldenGamma spaces the shard seeds (0x9E3779B97F4A7C15 as int64).
const goldenGamma = int64(-0x61C8864680B583EB)

// NewShardedKernel prepares s shards with the given horizon. Shard i is
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
	return &ShardedKernel{
		seed:    seed,
		horizon: horizon,
		events:  make([]uint64, s),
		busy:    make([]int64, s),
	}, nil
}

// Barriers returns how many times EachRegion has joined its workers. It
// survives only because the frozen bench/ module divides a Run's wall
// time by it (bench/probes.go:104).
func (sk *ShardedKernel) Barriers() uint64 { return sk.runs }

// Run runs every shard, with nothing scheduled on it, to the horizon and
// returns the horizon.
func (sk *ShardedKernel) Run() time.Duration {
	sk.EachRegion(func(_ int, k *Kernel) time.Duration {
		t0 := time.Now()
		k.RunUntil(sk.horizon)
		return time.Since(t0)
	})
	return sk.horizon
}

// EachRegion calls life(i, k) once per shard and returns when all calls
// have, sharing them among GOMAXPROCS-1 goroutines (at least one, at most
// one per shard, the caller's among them), each taking the next index as
// it finishes one. One core is left to the collector and the host: a run
// that keeps every core busy is as fast as its most disturbed core, and
// on two cores its rates repeat half as well as a serial run's
// (EXPERIMENTS.md). k is a fresh kernel seeded root+i·goldenGamma and
// bounded by the horizon. life builds shard i's work on it, runs it,
// takes what it needs and returns the wall time it spent running; that
// and the events k fired are shard i's stats. Nothing else keeps k, so
// whatever life does not keep — the kernel, its queue and all that its
// pending timers hold — is garbage before the worker takes its next
// index. life(i, k) must touch only shard i's state.
func (sk *ShardedKernel) EachRegion(life func(i int, k *Kernel) time.Duration) {
	n := len(sk.events)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			k := NewKernel(WithSeed(sk.seed+int64(i)*goldenGamma), WithHorizon(sk.horizon))
			sk.busy[i] = int64(life(i, k))
			sk.events[i] = k.EventsFired()
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
	sk.runs++
}

// ShardStats is one shard's run snapshot. EventsFired is a function of
// the event stream — identical across same-seed runs and safe for
// deterministic output. BusyNs (wall time the shard spent running) and
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

// Stats snapshots the run introspection. Call it after EachRegion
// returns.
func (sk *ShardedKernel) Stats() ShardedStats {
	st := ShardedStats{Shards: make([]ShardStats, len(sk.events))}
	slowest := slices.Max(sk.busy)
	var evMax, evSum, wallSum float64
	for i, ev := range sk.events {
		s := ShardStats{Shard: i, EventsFired: ev, BusyNs: sk.busy[i], StallNs: slowest - sk.busy[i]}
		st.Shards[i] = s
		evSum += float64(s.EventsFired)
		evMax = max(evMax, float64(s.EventsFired))
		wallSum += float64(s.BusyNs)
	}
	st.EventImbalance = imbalance(evMax, evSum, len(sk.events))
	st.WallImbalance = imbalance(float64(slowest), wallSum, len(sk.events))
	return st
}

// imbalance is max/mean, defined as 1 (balanced) when nothing happened.
func imbalance(max, sum float64, n int) float64 {
	if sum == 0 {
		return 1
	}
	return max * float64(n) / sum
}
