package stats

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/rpcc/internal/protocol"
)

func TestTrafficCounters(t *testing.T) {
	tr := NewTraffic()
	tr.RecordOriginated(protocol.KindPoll)
	tr.RecordTx(protocol.KindPoll, 32)
	tr.RecordTx(protocol.KindPoll, 32)
	tr.RecordTx(protocol.KindUpdate, 1056)
	tr.RecordDelivered(protocol.KindPoll)
	tr.RecordDropped(protocol.KindUpdate, DropLoss)

	if got := tr.Tx(protocol.KindPoll); got != 2 {
		t.Errorf("Tx(POLL) = %d, want 2", got)
	}
	if got := tr.TotalTx(); got != 3 {
		t.Errorf("TotalTx = %d, want 3", got)
	}
	if got := tr.TotalBytes(); got != 32+32+1056 {
		t.Errorf("TotalBytes = %d", got)
	}
	if got := tr.Originated(protocol.KindPoll); got != 1 {
		t.Errorf("Originated = %d", got)
	}
	if got := tr.Delivered(protocol.KindPoll); got != 1 {
		t.Errorf("Delivered = %d", got)
	}
	if got := tr.Dropped(protocol.KindUpdate); got != 1 {
		t.Errorf("Dropped = %d", got)
	}
}

func TestTrafficDropCauses(t *testing.T) {
	tr := NewTraffic()
	tr.RecordDropped(protocol.KindUpdate, DropLoss)
	tr.RecordDropped(protocol.KindUpdate, DropLoss)
	tr.RecordDropped(protocol.KindUpdate, DropPartition)
	tr.RecordDropped(protocol.KindPoll, DropDisconnected)
	tr.RecordDropped(protocol.KindPoll, DropNoRoute)

	if got := tr.Dropped(protocol.KindUpdate); got != 3 {
		t.Errorf("Dropped(UPDATE) = %d, want 3 (sum over causes)", got)
	}
	if got := tr.DroppedByCause(protocol.KindUpdate, DropLoss); got != 2 {
		t.Errorf("DroppedByCause(UPDATE, loss) = %d, want 2", got)
	}
	if got := tr.DroppedByCause(protocol.KindUpdate, DropPartition); got != 1 {
		t.Errorf("DroppedByCause(UPDATE, partition) = %d, want 1", got)
	}
	if got := tr.DroppedByCause(protocol.KindUpdate, DropNoRoute); got != 0 {
		t.Errorf("DroppedByCause(UPDATE, no-route) = %d, want 0", got)
	}
	if got := tr.TotalDroppedByCause(DropLoss); got != 2 {
		t.Errorf("TotalDroppedByCause(loss) = %d, want 2", got)
	}
	if got := tr.TotalDroppedByCause(DropNoRoute); got != 1 {
		t.Errorf("TotalDroppedByCause(no-route) = %d, want 1", got)
	}

	// Out-of-range causes are folded into no-route and surfaced as
	// invalid records rather than corrupting memory or vanishing.
	tr.RecordDropped(protocol.KindUpdate, DropCause(99))
	if got := tr.Invalid(); got != 1 {
		t.Errorf("Invalid after bad cause = %d, want 1", got)
	}
	if got := tr.DroppedByCause(protocol.KindUpdate, DropNoRoute); got != 1 {
		t.Errorf("bad cause not folded into no-route: %d", got)
	}
	if got := tr.DroppedByCause(protocol.KindUpdate, DropCause(99)); got != 0 {
		t.Errorf("DroppedByCause(bad cause) = %d, want 0", got)
	}

	// Merge adds cause-wise.
	other := NewTraffic()
	other.RecordDropped(protocol.KindUpdate, DropPartition)
	tr.Merge(other)
	if got := tr.DroppedByCause(protocol.KindUpdate, DropPartition); got != 2 {
		t.Errorf("merged DroppedByCause(partition) = %d, want 2", got)
	}
}

// TestDroppedUnknownLedger pins the kindless drop row: undecodable
// frames have no protocol kind, so they are accounted on their own
// ledger — surfaced by DroppedUnknown and folded into the per-cause
// totals — without touching the invalid-kind bug counter.
func TestDroppedUnknownLedger(t *testing.T) {
	tr := NewTraffic()
	tr.RecordDroppedUnknown(DropDecode)
	tr.RecordDroppedUnknown(DropDecode)
	tr.RecordDropped(protocol.KindPoll, DropDecode)

	if got := tr.DroppedUnknown(DropDecode); got != 2 {
		t.Errorf("DroppedUnknown(decode) = %d, want 2", got)
	}
	if got := tr.TotalDroppedByCause(DropDecode); got != 3 {
		t.Errorf("TotalDroppedByCause(decode) = %d, want 3 (kinded + kindless)", got)
	}
	if got := tr.Invalid(); got != 0 {
		t.Errorf("kindless drops bled into the invalid counter: %d", got)
	}

	// Out-of-range causes fold into no-route and surface as invalid,
	// mirroring RecordDropped.
	tr.RecordDroppedUnknown(DropCause(99))
	if got := tr.DroppedUnknown(DropNoRoute); got != 1 {
		t.Errorf("folded DroppedUnknown(no-route) = %d, want 1", got)
	}
	if got := tr.Invalid(); got != 1 {
		t.Errorf("invalid record not surfaced: %d", got)
	}
	if got := tr.DroppedUnknown(DropCause(99)); got != 0 {
		t.Errorf("DroppedUnknown(bad cause) = %d, want 0", got)
	}

	// Merge folds the kindless row too.
	other := NewTraffic()
	other.RecordDroppedUnknown(DropDecode)
	tr.Merge(other)
	if got := tr.DroppedUnknown(DropDecode); got != 3 {
		t.Errorf("merged DroppedUnknown(decode) = %d, want 3", got)
	}
}

func TestDropCauseString(t *testing.T) {
	for c, want := range map[DropCause]string{
		DropLoss: "loss", DropPartition: "partition",
		DropDisconnected: "disconnected", DropNoRoute: "no-route",
		DropPeerDown: "peer-down", DropDecode: "decode",
		DropCause(99): "invalid",
	} {
		if got := c.String(); got != want {
			t.Errorf("DropCause(%d).String = %q, want %q", c, got, want)
		}
	}
}

func TestTrafficMerge(t *testing.T) {
	a := NewTraffic()
	a.RecordOriginated(protocol.KindPoll)
	a.RecordTx(protocol.KindPoll, 32)
	a.RecordTx(protocol.KindUpdate, 1056)
	a.RecordDelivered(protocol.KindPoll)

	b := NewTraffic()
	b.RecordTx(protocol.KindPoll, 32)
	b.RecordTx(protocol.KindInvalidation, 64)
	b.RecordDropped(protocol.KindUpdate, DropPartition)

	a.Merge(b)
	if got := a.Tx(protocol.KindPoll); got != 2 {
		t.Errorf("merged Tx(POLL) = %d, want 2", got)
	}
	if got := a.Tx(protocol.KindInvalidation); got != 1 {
		t.Errorf("merged Tx(INVALIDATION) = %d, want 1", got)
	}
	if got := a.TotalTx(); got != 4 {
		t.Errorf("merged TotalTx = %d, want 4", got)
	}
	if got := a.TotalBytes(); got != 32+1056+32+64 {
		t.Errorf("merged TotalBytes = %d", got)
	}
	if got := a.Originated(protocol.KindPoll); got != 1 {
		t.Errorf("merged Originated = %d, want 1", got)
	}
	if got := a.Dropped(protocol.KindUpdate); got != 1 {
		t.Errorf("merged Dropped = %d, want 1", got)
	}
	// The source ledger is read-only under Merge.
	if got := b.TotalTx(); got != 2 {
		t.Errorf("source ledger mutated: TotalTx = %d, want 2", got)
	}

	// Self-merge doubles, and a nil merge is a no-op.
	b.Merge(b)
	if got := b.TotalTx(); got != 4 {
		t.Errorf("self-merge TotalTx = %d, want 4", got)
	}
	b.Merge(nil)
	if got := b.TotalTx(); got != 4 {
		t.Errorf("nil merge TotalTx = %d, want 4", got)
	}
}

// TestTrafficMergeConcurrent exercises cross-direction concurrent merges
// under the race detector: the snapshot-then-add locking discipline must
// neither deadlock nor race.
func TestTrafficMergeConcurrent(t *testing.T) {
	a, b := NewTraffic(), NewTraffic()
	a.RecordTx(protocol.KindPoll, 1)
	b.RecordTx(protocol.KindUpdate, 1)
	done := make(chan struct{}, 2)
	go func() {
		for i := 0; i < 100; i++ {
			a.Merge(b)
		}
		done <- struct{}{}
	}()
	go func() {
		for i := 0; i < 100; i++ {
			b.Merge(a)
		}
		done <- struct{}{}
	}()
	<-done
	<-done
	if a.TotalTx() == 0 || b.TotalTx() == 0 {
		t.Fatal("merge lost all counters")
	}
}

func TestTrafficSnapshotSortedAndFiltered(t *testing.T) {
	tr := NewTraffic()
	tr.RecordTx(protocol.KindPollAckA, 32)
	tr.RecordTx(protocol.KindInvalidation, 32)
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	if snap[0].Kind != protocol.KindInvalidation || snap[1].Kind != protocol.KindPollAckA {
		t.Errorf("Snapshot order = %v,%v", snap[0].Kind, snap[1].Kind)
	}
	if !strings.Contains(tr.String(), "INVALIDATION=1") {
		t.Errorf("String = %q", tr.String())
	}
}

func TestTrafficInvalidKindGoesToSentinel(t *testing.T) {
	tr := NewTraffic()
	tr.RecordTx(protocol.KindInvalid, 10)
	if got := tr.TotalTx(); got != 1 {
		t.Errorf("TotalTx = %d, want 1 (sentinel slot)", got)
	}
	if snap := tr.Snapshot(); len(snap) != 0 {
		t.Errorf("Snapshot exposed sentinel slot: %v", snap)
	}
}

func TestLatencyEmpty(t *testing.T) {
	l := NewLatency()
	if l.Count() != 0 || l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 {
		t.Error("empty recorder returned non-zero summary")
	}
	if l.Quantile(0.5) != 0 {
		t.Error("empty quantile non-zero")
	}
}

func TestLatencyMoments(t *testing.T) {
	l := NewLatency()
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		l.Record(d)
	}
	if got := l.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", got)
	}
	if got := l.Min(); got != 10*time.Millisecond {
		t.Errorf("Min = %v", got)
	}
	if got := l.Max(); got != 30*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
	if got := l.Count(); got != 3 {
		t.Errorf("Count = %d", got)
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	l := NewLatency()
	l.Record(-time.Second)
	if got := l.Min(); got != 0 {
		t.Errorf("Min = %v, want 0", got)
	}
}

func TestLatencyQuantileBounds(t *testing.T) {
	l := NewLatency()
	for i := 0; i < 99; i++ {
		l.Record(time.Millisecond)
	}
	l.Record(time.Minute)
	p50 := l.Quantile(0.5)
	p995 := l.Quantile(0.995)
	if p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p995 < time.Minute/2 {
		t.Errorf("p99.5 = %v, want >= 30s", p995)
	}
	if got := l.Quantile(2); got < p995 {
		t.Errorf("Quantile(2) = %v below p99.5", got)
	}
}

func TestLatencyQuantileUpperBoundProperty(t *testing.T) {
	// Property: Quantile(1) is an upper bound of every recorded sample's
	// bucket edge, and quantiles are monotone in q.
	f := func(ms []uint16) bool {
		if len(ms) == 0 {
			return true
		}
		l := NewLatency()
		var max time.Duration
		for _, m := range ms {
			d := time.Duration(m) * time.Millisecond
			l.Record(d)
			if d > max {
				max = d
			}
		}
		q1 := l.Quantile(1)
		if q1 < max/2 {
			return false
		}
		return l.Quantile(0.25) <= l.Quantile(0.5) && l.Quantile(0.5) <= l.Quantile(0.99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketForMonotone(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond, time.Second, time.Minute, time.Hour} {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor not monotone at %v", d)
		}
		if b >= nBuckets {
			t.Fatalf("bucket %d out of range for %v", b, d)
		}
		prev = b
	}
}

func TestLatencyString(t *testing.T) {
	l := NewLatency()
	l.Record(time.Second)
	if got := l.String(); !strings.Contains(got, "n=1") {
		t.Errorf("String = %q", got)
	}
}

// TestTrafficInvalidCounterVisible checks that out-of-range kinds are
// explicitly counted instead of silently folding into slot 0: the totals
// stay honest AND the bug is visible through Invalid().
func TestTrafficInvalidCounterVisible(t *testing.T) {
	tr := NewTraffic()
	tr.RecordTx(protocol.KindInvalid, 10)
	tr.RecordTx(protocol.Kind(protocol.NumKinds), 5) // one past the end
	tr.RecordTx(protocol.Kind(200), 1)
	tr.RecordOriginated(protocol.Kind(-1))
	tr.RecordDelivered(protocol.Kind(99))
	tr.RecordDropped(protocol.Kind(99), DropLoss)
	if got := tr.Invalid(); got != 6 {
		t.Errorf("Invalid = %d, want 6", got)
	}
	if got := tr.InvalidTx(); got != 3 {
		t.Errorf("InvalidTx = %d, want 3", got)
	}
	if got := tr.TotalTx(); got != 3 {
		t.Errorf("TotalTx = %d, want 3 (sentinel slot keeps totals honest)", got)
	}
	// A valid record does not disturb the invalid tally.
	tr.RecordTx(protocol.KindPoll, 8)
	if got := tr.Invalid(); got != 6 {
		t.Errorf("Invalid after valid record = %d, want 6", got)
	}

	// Merge propagates the invalid count.
	other := NewTraffic()
	other.RecordTx(protocol.Kind(250), 1)
	tr.Merge(other)
	if got := tr.Invalid(); got != 7 {
		t.Errorf("merged Invalid = %d, want 7", got)
	}
}

func TestLatencySingleSample(t *testing.T) {
	l := NewLatency()
	l.Record(7 * time.Millisecond)
	if l.Count() != 1 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 7*time.Millisecond || l.Min() != 7*time.Millisecond || l.Max() != 7*time.Millisecond {
		t.Errorf("moments = mean %v min %v max %v, want 7ms each", l.Mean(), l.Min(), l.Max())
	}
	// Every positive quantile of a single sample resolves to that
	// sample's bucket upper bound, never below the sample itself
	// (q <= 0 is defined as 0).
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := l.Quantile(q); got < 7*time.Millisecond {
			t.Errorf("Quantile(%g) = %v below the only sample", q, got)
		}
	}
}

// TestBucketForEdges pins the logarithmic bucket boundaries: bucket b>0
// covers milliseconds in [2^(b-1), 2^b - 1], bucket 0 is sub-millisecond.
func TestBucketForEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Microsecond, 0}, // truncates to 0ms
		{time.Millisecond, 1},
		{2 * time.Millisecond, 2},
		{3 * time.Millisecond, 2},
		{4 * time.Millisecond, 3},
		{1023 * time.Millisecond, 10},
		{1024 * time.Millisecond, 11},
		{24 * 24 * time.Hour, nBuckets - 1}, // beyond the last bound clamps
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
