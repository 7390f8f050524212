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

// shardWorkload drives the same event pattern on either a ShardedKernel
// or a single reference Kernel: per-shard ticker chains with distinct
// offsets and periods, every third tick mailing the next shard, and each
// mail arrival mailing one hop further (bounded depth). All effects are
// logged per logical shard; traces[i] is only ever appended from shard
// i's handlers, so the parallel windows need no locking.
const (
	shardWlShards    = 4
	shardWlLookahead = 2 * time.Millisecond
	shardWlHorizon   = 400 * time.Millisecond
)

func shardWlTickPeriod(i int) time.Duration {
	return 9973*time.Microsecond + time.Duration(i)*131*time.Microsecond
}

func shardWlMailDelay(i, n int) time.Duration {
	return shardWlLookahead + time.Duration(i+1)*time.Microsecond + time.Duration(n%5)*11*time.Microsecond
}

// runShardedTrace runs the workload on a ShardedKernel and returns the
// per-shard traces plus the kernel (for counter assertions).
func runShardedTrace(t *testing.T) ([][]shardTraceEntry, *ShardedKernel) {
	t.Helper()
	sk, err := NewShardedKernel(shardWlShards, shardWlLookahead, shardWlHorizon, 42)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	traces := make([][]shardTraceEntry, shardWlShards)

	var mailFn func(at, depth int, tag string) Handler
	mailFn = func(at, depth int, tag string) Handler {
		return func(k *Kernel) {
			traces[at] = append(traces[at], shardTraceEntry{k.Now(), tag})
			if depth > 0 {
				next := (at + 1) % shardWlShards
				if err := sk.Send(at, next, shardWlMailDelay(at, depth), tag+">", mailFn(next, depth-1, tag+">")); err != nil {
					t.Errorf("relay send: %v", err)
				}
			}
		}
	}

	for i := 0; i < shardWlShards; i++ {
		i := i
		var tick func(n int) Handler
		tick = func(n int) Handler {
			return func(k *Kernel) {
				traces[i] = append(traces[i], shardTraceEntry{k.Now(), fmt.Sprintf("tick.%d.%d", i, n)})
				if n%3 == 0 {
					next := (i + 1) % shardWlShards
					tag := fmt.Sprintf("mail.%d.%d", i, n)
					if err := sk.Send(i, next, shardWlMailDelay(i, n), tag, mailFn(next, 2, tag)); err != nil {
						t.Errorf("tick send: %v", err)
					}
				}
				k.After(shardWlTickPeriod(i), "tick", tick(n+1))
			}
		}
		start := time.Duration(i+1) * 13 * time.Microsecond
		if _, err := sk.Shard(i).At(start, "tick", tick(0)); err != nil {
			t.Fatalf("seed shard %d: %v", i, err)
		}
	}
	if got := sk.Run(); got != shardWlHorizon {
		t.Fatalf("Run returned %v, want %v", got, shardWlHorizon)
	}
	return traces, sk
}

// runSingleTrace runs the identical workload on one serial kernel; Send
// becomes a plain At(now+delay) on the same kernel.
func runSingleTrace(t *testing.T) [][]shardTraceEntry {
	t.Helper()
	k := NewKernel(WithSeed(42), WithHorizon(shardWlHorizon))
	traces := make([][]shardTraceEntry, shardWlShards)

	var mailFn func(at, depth int, tag string) Handler
	mailFn = func(at, depth int, tag string) Handler {
		return func(k *Kernel) {
			traces[at] = append(traces[at], shardTraceEntry{k.Now(), tag})
			if depth > 0 {
				next := (at + 1) % shardWlShards
				k.After(shardWlMailDelay(at, depth), tag+">", mailFn(next, depth-1, tag+">"))
			}
		}
	}

	for i := 0; i < shardWlShards; i++ {
		i := i
		var tick func(n int) Handler
		tick = func(n int) Handler {
			return func(k *Kernel) {
				traces[i] = append(traces[i], shardTraceEntry{k.Now(), fmt.Sprintf("tick.%d.%d", i, n)})
				if n%3 == 0 {
					next := (i + 1) % shardWlShards
					tag := fmt.Sprintf("mail.%d.%d", i, n)
					k.After(shardWlMailDelay(i, n), tag, mailFn(next, 2, tag))
				}
				k.After(shardWlTickPeriod(i), "tick", tick(n+1))
			}
		}
		start := time.Duration(i+1) * 13 * time.Microsecond
		if _, err := k.At(start, "tick", tick(0)); err != nil {
			t.Fatalf("seed shard %d: %v", i, err)
		}
	}
	k.Run()
	return traces
}

// mergeShardTraces flattens per-shard traces into one (when, label)
// ordered sequence. The workload's offsets and per-shard periods keep
// timestamps distinct, so this order is total and scheduler-independent.
func mergeShardTraces(traces [][]shardTraceEntry) []shardTraceEntry {
	var all []shardTraceEntry
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].When != all[j].When {
			return all[i].When < all[j].When
		}
		return all[i].Label < all[j].Label
	})
	return all
}

// TestShardedMatchesSerialKernel is the sharded-kernel correctness gate:
// the merged execution trace of the sharded kernel is identical to a
// single serial kernel running the union of events.
func TestShardedMatchesSerialKernel(t *testing.T) {
	shardedTr, sk := runShardedTrace(t)
	singleTr := runSingleTrace(t)

	if sk.Delivered() == 0 {
		t.Fatal("workload delivered no cross-shard mail; test is vacuous")
	}
	if sk.Barriers() == 0 {
		t.Fatal("no barriers executed")
	}

	ref := mergeShardTraces(singleTr)
	if len(ref) == 0 {
		t.Fatal("reference trace empty")
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].When == ref[i-1].When {
			t.Fatalf("workload produced duplicate timestamp %v (%q / %q); trace order not total",
				ref[i].When, ref[i-1].Label, ref[i].Label)
		}
	}
	if got := mergeShardTraces(shardedTr); !reflect.DeepEqual(got, ref) {
		t.Fatalf("sharded trace diverges from single kernel: %d vs %d entries", len(got), len(ref))
	}
}

// TestShardedRunTwiceIdentical pins run-to-run determinism including
// per-shard event order (not just the merged view): GOMAXPROCS 1, where
// the caller runs the shards one after another, against 4, where three
// workers share them.
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
	sk, err := NewShardedKernel(5, time.Second, time.Second, 1)
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

// TestShardedSendValidation covers the conservative-synchronization
// contract: sub-lookahead delays and bad shard indices are rejected.
func TestShardedSendValidation(t *testing.T) {
	sk, err := NewShardedKernel(2, shardWlLookahead, time.Second, 1)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	nop := func(*Kernel) {}
	if err := sk.Send(0, 1, shardWlLookahead-time.Nanosecond, "x", nop); err == nil {
		t.Error("sub-lookahead delay accepted")
	}
	if err := sk.Send(0, 2, shardWlLookahead, "x", nop); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := sk.Send(-1, 0, shardWlLookahead, "x", nop); err == nil {
		t.Error("out-of-range sender accepted")
	}
	if err := sk.Send(0, 1, shardWlLookahead, "x", nop); err != nil {
		t.Errorf("legal send rejected: %v", err)
	}
	if _, err := NewShardedKernel(0, shardWlLookahead, time.Second, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedKernel(2, 0, time.Second, 1); err == nil {
		t.Error("zero lookahead accepted")
	}
	if _, err := NewShardedKernel(2, shardWlLookahead, 0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestShardedMailboxPooling asserts delivered messages are recycled: the
// pool holds entries after a run, and their count matches deliveries
// minus what is still checked out (nothing, post-run).
func TestShardedMailboxPooling(t *testing.T) {
	traces, sk := runShardedTrace(t)
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	pooled := 0
	for _, p := range sk.pool {
		pooled += len(p)
	}
	if pooled == 0 {
		t.Fatal("no mailbox entries recycled")
	}
	if uint64(pooled) > sk.Delivered() {
		t.Fatalf("pool holds %d entries but only %d were ever delivered", pooled, sk.Delivered())
	}
}

// TestShardedIdleEarlyExit: with no work queued the run must not grind
// through horizon/lookahead empty windows.
func TestShardedIdleEarlyExit(t *testing.T) {
	sk, err := NewShardedKernel(3, time.Millisecond, time.Hour, 9)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	if got := sk.Run(); got != time.Hour {
		t.Fatalf("Run returned %v", got)
	}
	if sk.Barriers() > 2 {
		t.Fatalf("idle run executed %d barriers; early exit broken", sk.Barriers())
	}
	for i := 0; i < sk.Shards(); i++ {
		if now := sk.Shard(i).Now(); now != time.Hour {
			t.Fatalf("shard %d clock %v, want horizon", i, now)
		}
	}
}

// TestShardedSingleShardDegenerate: S=1 must behave exactly like a plain
// kernel with the same seed (same stream values, same event times).
func TestShardedSingleShardDegenerate(t *testing.T) {
	sk, err := NewShardedKernel(1, time.Millisecond, 50*time.Millisecond, 77)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	ref := NewKernel(WithSeed(77), WithHorizon(50*time.Millisecond))

	if a, b := sk.Shard(0).Stream("x").Uint64(), ref.Stream("x").Uint64(); a != b {
		t.Fatalf("shard 0 stream diverges from serial kernel: %d vs %d", a, b)
	}

	var got, want []shardTraceEntry
	chain := func(out *[]shardTraceEntry) Handler {
		var f func(n int) Handler
		f = func(n int) Handler {
			return func(k *Kernel) {
				*out = append(*out, shardTraceEntry{k.Now(), fmt.Sprintf("e%d", n)})
				if n < 20 {
					k.After(7*time.Millisecond, "e", f(n+1))
				}
			}
		}
		return f(0)
	}
	if _, err := sk.Shard(0).At(time.Millisecond, "e", chain(&got)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.At(time.Millisecond, "e", chain(&want)); err != nil {
		t.Fatal(err)
	}
	sk.Run()
	ref.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard trace diverges: %v vs %v", got, want)
	}
}
