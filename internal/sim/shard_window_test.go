package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// windowProgram is a seeded event program over n logical shards: one
// ticker chain per shard, a third of the ticks mailing a random other
// shard, every arrival relaying twice more. Every send carries at least
// minDelay. Timestamps are distinct per shard by construction — ticks
// land on multiples of 2n ns, mail from sender s on 2s+1 modulo 2n — so
// a shard's event order is defined by time alone and must not depend on
// which barrier handed a mail over.
type windowProgram struct {
	seed     int64
	n        int
	minDelay time.Duration
}

func (p windowProgram) horizon() time.Duration { return 12 * p.minDelay }

// align rounds t up to the next multiple of 2n ns, plus residue.
func (p windowProgram) align(t time.Duration, residue int) time.Duration {
	q := time.Duration(2 * p.n)
	return (t+q-1)/q*q + time.Duration(residue)
}

// install seeds the program. kernel(i) is where shard i's events run and
// send posts a handler from one shard to another; the sharded runs pass
// Shard and Send, the reference passes one kernel and After. The
// returned per-shard traces fill in as the caller runs the kernel(s).
func (p windowProgram) install(t *testing.T, kernel func(i int) *Kernel,
	send func(from, to int, delay time.Duration, fn Handler)) [][]shardTraceEntry {
	t.Helper()
	traces := make([][]shardTraceEntry, p.n)
	rngs := make([]*rand.Rand, p.n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(p.seed*31 + int64(i)))
	}
	// post mails a random other shard from shard `from`, drawing from the
	// sender's stream (a shard's draws happen in its own event order).
	var post func(k *Kernel, from, depth int, tag string)
	post = func(k *Kernel, from, depth int, tag string) {
		rng := rngs[from]
		to := (from + 1 + rng.Intn(p.n-1)) % p.n
		arrive := p.align(k.Now()+p.minDelay+time.Duration(rng.Int63n(int64(p.minDelay))), 2*from+1)
		send(from, to, arrive-k.Now(), func(k *Kernel) {
			traces[to] = append(traces[to], shardTraceEntry{k.Now(), tag})
			if depth > 0 {
				post(k, to, depth-1, tag+">")
			}
		})
	}
	for i := 0; i < p.n; i++ {
		var tick func(n int) Handler
		tick = func(n int) Handler {
			return func(k *Kernel) {
				traces[i] = append(traces[i], shardTraceEntry{k.Now(), fmt.Sprintf("tick.%d.%d", i, n)})
				if rngs[i].Intn(3) == 0 {
					post(k, i, 2, fmt.Sprintf("mail.%d.%d", i, n))
				}
				period := p.minDelay/100 + time.Duration(rngs[i].Int63n(int64(p.minDelay/100)))
				if _, err := k.At(p.align(k.Now()+period, 0), "tick", tick(n+1)); err != nil {
					t.Errorf("tick: %v", err)
				}
			}
		}
		if _, err := kernel(i).At(p.align(time.Duration(rngs[i].Int63n(int64(p.minDelay))), 0), "tick", tick(0)); err != nil {
			t.Fatalf("seed shard %d: %v", i, err)
		}
	}
	return traces
}

// runSharded runs the program under the given lookahead.
func (p windowProgram) runSharded(t *testing.T, lookahead time.Duration) ([][]shardTraceEntry, *ShardedKernel) {
	t.Helper()
	sk, err := NewShardedKernel(p.n, lookahead, p.horizon(), p.seed)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	traces := p.install(t, sk.Shard, func(from, to int, delay time.Duration, fn Handler) {
		if err := sk.Send(from, to, delay, "mail", fn); err != nil {
			t.Errorf("send %d->%d: %v", from, to, err)
		}
	})
	sk.Run()
	return traces, sk
}

// TestWindowLengthUnobservableProperty: the same program, every send
// carrying at least k·L, produces identical per-shard traces under
// lookahead L (many short windows) and k·L (few long ones), and both
// equal the single-kernel reference. k = 500 is RunScale's move from one
// radio hop (2 ms) to one gossip round (1 s).
func TestWindowLengthUnobservableProperty(t *testing.T) {
	const l = 2 * time.Millisecond
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := []time.Duration{2, 7, 50, 500}[rng.Intn(4)]
		p := windowProgram{seed: seed, n: 2 + rng.Intn(4), minDelay: k * l}

		ref := NewKernel(WithSeed(seed), WithHorizon(p.horizon()))
		want := p.install(t, func(int) *Kernel { return ref },
			func(_, _ int, delay time.Duration, fn Handler) { ref.After(delay, "mail", fn) })
		ref.Run()

		short, skShort := p.runSharded(t, l)
		long, skLong := p.runSharded(t, p.minDelay)

		if skLong.Delivered() == 0 {
			t.Fatalf("seed %d: no cross-shard mail; test is vacuous", seed)
		}
		if skShort.Barriers() < uint64(k)*skLong.Barriers()/2 {
			t.Fatalf("seed %d: %d short windows vs %d long ones; windows did not differ by ~%d×",
				seed, skShort.Barriers(), skLong.Barriers(), k)
		}
		if skShort.Delivered() != skLong.Delivered() {
			t.Errorf("seed %d: delivered %d (L) vs %d (%d·L)", seed, skShort.Delivered(), skLong.Delivered(), k)
		}
		for i := range want {
			if !reflect.DeepEqual(short[i], want[i]) {
				t.Errorf("seed %d shard %d: lookahead L diverges from the single kernel", seed, i)
			}
			if !reflect.DeepEqual(long[i], want[i]) {
				t.Errorf("seed %d shard %d: lookahead %d·L diverges from the single kernel", seed, i, k)
			}
		}
	}
}

// TestShardedMailAtHorizon pins the run's last window: mail arriving
// exactly at the horizon fires; mail sent at the horizon is handed over
// and counted, and never fires.
func TestShardedMailAtHorizon(t *testing.T) {
	const l, horizon = time.Second, 10 * time.Second
	sk, err := NewShardedKernel(2, l, horizon, 1)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	var fired []string
	mail := func(tag string) Handler {
		return func(k *Kernel) {
			if err := sk.Send(0, 1, l, tag, func(k *Kernel) {
				fired = append(fired, fmt.Sprintf("%s@%v", tag, k.Now()))
			}); err != nil {
				t.Errorf("send %s: %v", tag, err)
			}
		}
	}
	for _, ev := range []struct {
		at  time.Duration
		tag string
	}{{horizon - l, "lands-on-horizon"}, {horizon, "sent-at-horizon"}} {
		if _, err := sk.Shard(0).At(ev.at, ev.tag, mail(ev.tag)); err != nil {
			t.Fatal(err)
		}
	}
	sk.Run()
	if want := []string{"lands-on-horizon@10s"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	st := sk.Stats()
	if sk.Delivered() != 2 || st.Shards[0].MailSent != 2 || st.Shards[1].MailRecv != 2 {
		t.Fatalf("delivered=%d sent=%d recv=%d, want 2 each (mail past the horizon is still counted)",
			sk.Delivered(), st.Shards[0].MailSent, st.Shards[1].MailRecv)
	}
}
