package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// shardTraceEntry is one observable side effect of the trace workload.
type shardTraceEntry struct {
	When  time.Duration
	Label string
}

const (
	shardWlShards  = 4
	shardWlHorizon = 400 * time.Millisecond
)

// installChain seeds one event chain on k: every tick logs its time and
// a draw from the kernel's own stream, then schedules the next after a
// period drawn from that stream — so the trace is a function of the
// kernel's seed, and of nothing outside the kernel.
func installChain(t *testing.T, k *Kernel, out *[]shardTraceEntry) {
	t.Helper()
	rng := k.Stream("chain")
	var tick func(n int) Handler
	tick = func(n int) Handler {
		return func(k *Kernel) {
			*out = append(*out, shardTraceEntry{k.Now(), fmt.Sprintf("tick.%d.%d", n, rng.Intn(1000))})
			k.After(time.Millisecond+time.Duration(rng.Int63n(int64(9*time.Millisecond))), "tick", tick(n+1))
		}
	}
	if _, err := k.At(time.Duration(1+rng.Intn(1000))*time.Microsecond, "tick", tick(0)); err != nil {
		t.Fatalf("seed chain: %v", err)
	}
}

// runShardedTrace runs one chain per shard on a ShardedKernel and
// returns the per-shard traces. traces[i] is only ever appended from
// shard i's handlers, so the workers need no locking.
func runShardedTrace(t *testing.T) ([][]shardTraceEntry, *ShardedKernel) {
	t.Helper()
	sk, err := NewShardedKernel(shardWlShards, 0, shardWlHorizon, 42)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	traces := make([][]shardTraceEntry, shardWlShards)
	for i := range traces {
		installChain(t, sk.Shard(i), &traces[i])
	}
	if got := sk.Run(); got != shardWlHorizon {
		t.Fatalf("Run returned %v, want %v", got, shardWlHorizon)
	}
	return traces, sk
}

// TestShardedMatchesSerialKernel is the sharded-kernel correctness gate:
// shard i's execution is exactly a serial kernel's on seed
// root+i·goldenGamma, its clock lands on the horizon, and a Run counts
// as one join (what bench/ reads through Barriers).
func TestShardedMatchesSerialKernel(t *testing.T) {
	sharded, sk := runShardedTrace(t)
	if sk.Barriers() != 1 {
		t.Fatalf("Barriers() = %d after one Run, want 1", sk.Barriers())
	}
	for i := range sharded {
		ref := NewKernel(WithSeed(42+int64(i)*goldenGamma), WithHorizon(shardWlHorizon))
		var want []shardTraceEntry
		installChain(t, ref, &want)
		ref.Run()
		if len(want) == 0 {
			t.Fatalf("shard %d: reference trace empty", i)
		}
		if !reflect.DeepEqual(sharded[i], want) {
			t.Fatalf("shard %d diverges from a serial kernel on its seed: %d vs %d entries", i, len(sharded[i]), len(want))
		}
		if i > 0 && reflect.DeepEqual(sharded[i], sharded[0]) {
			t.Fatalf("shard %d repeats shard 0; seeds are not spaced", i)
		}
		if now := sk.Shard(i).Now(); now != shardWlHorizon {
			t.Fatalf("shard %d clock %v, want the horizon", i, now)
		}
	}
}

// TestShardedRunTwiceIdentical pins run-to-run determinism of every
// shard's event order: GOMAXPROCS 1, where the caller runs the shards
// one after another, against 4, where three workers share them.
func TestShardedRunTwiceIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, _ := runShardedTrace(t)
	runtime.GOMAXPROCS(4)
	b, _ := runShardedTrace(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-shard traces differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestEachShard: every index is called exactly once whatever the worker
// count, in index order when the caller is the only worker, and never on
// more than GOMAXPROCS-1 goroutines at a time.
func TestEachShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sk, err := NewShardedKernel(5, 0, time.Second, 1)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		var order []int
		var mu sync.Mutex
		var running, peak int
		sk.EachShard(func(i int) {
			mu.Lock()
			order = append(order, i)
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(time.Millisecond) // let the other workers overlap
			mu.Lock()
			running--
			mu.Unlock()
		})
		if procs <= 2 && !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
			t.Errorf("GOMAXPROCS=%d: call order %v, want index order", procs, order)
		}
		sort.Ints(order)
		if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
			t.Errorf("GOMAXPROCS=%d: called %v, want each of 5 shards once", procs, order)
		}
		if want := min(5, max(1, procs-1)); peak > want {
			t.Errorf("GOMAXPROCS=%d: %d calls ran at once, want at most %d", procs, peak, want)
		}
	}
}

// TestNewShardedKernelValidation: a kernel needs a shard and a horizon.
func TestNewShardedKernelValidation(t *testing.T) {
	if _, err := NewShardedKernel(0, 0, time.Second, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedKernel(2, 0, 0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestShardedSingleShardDegenerate: S=1 must behave exactly like a plain
// kernel with the same seed (same stream values, same event times).
func TestShardedSingleShardDegenerate(t *testing.T) {
	sk, err := NewShardedKernel(1, 0, 50*time.Millisecond, 77)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	ref := NewKernel(WithSeed(77), WithHorizon(50*time.Millisecond))

	if a, b := sk.Shard(0).Stream("x").Uint64(), ref.Stream("x").Uint64(); a != b {
		t.Fatalf("shard 0 stream diverges from serial kernel: %d vs %d", a, b)
	}

	var got, want []shardTraceEntry
	installChain(t, sk.Shard(0), &got)
	installChain(t, ref, &want)
	sk.Run()
	ref.Run()
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard trace diverges: %v vs %v", got, want)
	}
}
