package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/stats"
)

func TestRegistryDedupAndLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", Label{"x", "1"}, Label{"y", "2"})
	b := r.Counter("c_total", "h", Label{"y", "2"}, Label{"x", "1"})
	if a != b {
		t.Fatal("label order created two instruments for one identity")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("Value = %d through the other handle, want 1", b.Value())
	}
	if r.Counter("c_total", "h", Label{"x", "other"}) == a {
		t.Fatal("different label set deduplicated onto the same counter")
	}
}

// TestSortLabelsIsStableAndAllocatesOnlyTheCopy: labels sort by key,
// labels that repeat a key keep their given order, and the sort itself
// allocates nothing (the copy is the one object).
func TestSortLabelsIsStableAndAllocatesOnlyTheCopy(t *testing.T) {
	in := []Label{{"z", "1"}, {"b", "2"}, {"a", "3"}, {"b", "4"}, {"a", "5"}, {"b", "6"}}
	want := []Label{{"a", "3"}, {"a", "5"}, {"b", "2"}, {"b", "4"}, {"b", "6"}, {"z", "1"}}
	if got := sortLabels(in); !slices.Equal(got, want) {
		t.Fatalf("sortLabels = %v, want %v", got, want)
	}
	if in[0] != (Label{"z", "1"}) {
		t.Fatal("sortLabels reordered its argument")
	}
	if allocs := testing.AllocsPerRun(100, func() { sortLabels(in) }); allocs != 1 {
		t.Errorf("sortLabels allocates %.0f objects, want 1", allocs)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_test", "h", []float64{1, 2, 4})
	// A sample exactly on an upper bound belongs to that bucket
	// (le is inclusive); above the last bound it lands in +Inf.
	for _, v := range []float64{0, 1, 1.5, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // le=1: {0,1}; le=2: {1.5,2}; le=4: {4}; +Inf: rest
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if got := h.Sum(); got != 0+1+1.5+2+4+4.0001+100 {
		t.Errorf("Sum = %g", got)
	}
}

func TestSnapshotDeterministicAcrossRegistrationOrder(t *testing.T) {
	build := func(reverse bool) *Snapshot {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("b_total", "h", Label{"k", "x"}).Add(3) },
			func() { r.Counter("a_total", "h").Inc() },
			func() { r.Histogram("c_seconds", "h", []float64{1, 2}).Observe(1.5) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r.Snapshot(60)
	}
	var w1, w2 bytes.Buffer
	if err := WritePrometheus(&w1, build(false)); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&w2, build(true)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatalf("registration order leaked into the export:\n%s\nvs\n%s", w1.String(), w2.String())
	}
}

func TestSnapshotSkipsZeroMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("zero_total", "h")
	r.Counter("live_total", "h").Inc()
	snap := r.Snapshot(0)
	if _, ok := snap.Family("zero_total"); ok {
		t.Error("zero-valued family exported")
	}
	if _, ok := snap.Family("live_total"); !ok {
		t.Error("live family missing")
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(n uint64, hv float64) *Snapshot {
		r := NewRegistry()
		r.Counter("m_total", "h", Label{"k", "a"}).Add(n)
		r.Histogram("m_seconds", "h", []float64{1, 2}).Observe(hv)
		return r.Snapshot(10)
	}
	a, b := mk(2, 0.5), mk(3, 1.5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.CounterValue("m_total"); got != 5 {
		t.Errorf("merged counter = %g, want 5", got)
	}
	if a.SimSeconds != 20 {
		t.Errorf("SimSeconds = %g, want 20", a.SimSeconds)
	}
	f, _ := a.Family("m_seconds")
	if f.Metrics[0].Count != 2 || f.Metrics[0].Buckets[0] != 1 || f.Metrics[0].Buckets[1] != 1 {
		t.Errorf("merged histogram wrong: %+v", f.Metrics[0])
	}

	// A family only the other side has is copied, not aliased.
	r := NewRegistry()
	r.Counter("extra_total", "h").Inc()
	extra := r.Snapshot(0)
	if err := a.Merge(extra); err != nil {
		t.Fatal(err)
	}
	if got := a.CounterValue("extra_total"); got != 1 {
		t.Errorf("copied family value = %g, want 1", got)
	}
	extra.Families[0].Metrics[0].Value = 99
	if got := a.CounterValue("extra_total"); got != 1 {
		t.Error("merge aliased the source snapshot's metrics")
	}

	// Bucket-scheme mismatch must be rejected, not silently mangled.
	r2 := NewRegistry()
	r2.Histogram("m_seconds", "h", []float64{5, 6}).Observe(5.5)
	if err := a.Merge(r2.Snapshot(0)); err == nil {
		t.Error("merge accepted mismatched bucket schemes")
	}

	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestWritePrometheusHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(3)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot(1)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_count 3`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// TestNilHubIsInert: a nil hub has no tracer and no snapshot, and every
// getter hands back a nil handle that records nothing, so the layers
// that register on it never branch on whether telemetry is wired.
func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	if h.Tracer() != nil {
		t.Error("nil hub returned a tracer")
	}
	h.AttachTraffic(nil)
	h.Finish(time.Hour)
	c := h.Counter("x_total", "h")
	c.Inc()
	hist := h.Histogram("x_seconds", "h", TimeBuckets)
	hist.Observe(1)
	if c != nil || hist != nil || c.Value() != 0 || hist.Count() != 0 {
		t.Error("nil hub returned a live handle")
	}
	if h.Snapshot() != nil {
		t.Error("nil hub produced a snapshot")
	}
	if NewHub(LevelOff) != nil {
		t.Error("NewHub(LevelOff) should return the nil hub")
	}
}

// TestHubTracerFeedsHistogramsAndWaves: unicast and flood-wave deliveries
// both land in the per-kind latency and hop histograms (wave rows
// themselves are derived from the causal trace, not kept here).
func TestHubTracerFeedsHistogramsAndWaves(t *testing.T) {
	h := NewHub(LevelMetrics)
	tr := h.Tracer()
	msg := protocol.Message{Kind: protocol.KindPoll, Origin: 1, Item: 2}
	meta := netsim.Meta{Hops: 2, At: 3 * time.Second, SentAt: time.Second}
	tr(3*time.Second, 5, msg, meta)
	flood := netsim.Meta{Hops: 1, At: 4 * time.Second, SentAt: 4 * time.Second, Flood: true, FloodID: 7}
	inv := protocol.Message{Kind: protocol.KindInvalidation, Origin: 0, Item: 1, Version: 3}
	tr(4*time.Second, 6, inv, flood)
	tr(5*time.Second, 7, inv, netsim.Meta{Hops: 3, At: 5 * time.Second, SentAt: 4 * time.Second, Flood: true, FloodID: 7})
	// Invalid kinds must not panic or index out of range.
	tr(0, 0, protocol.Message{Kind: protocol.KindInvalid}, netsim.Meta{})

	if got := h.delivLatency[protocol.KindPoll].Count(); got != 1 {
		t.Errorf("poll latency samples = %d, want 1", got)
	}
	if hops := h.delivHops[protocol.KindInvalidation]; hops.Count() != 2 || hops.Sum() != 4 {
		t.Errorf("invalidation wave hops: %d samples summing to %g, want 2 summing to 4", hops.Count(), hops.Sum())
	}
}

func TestFinishExportsAttachedSources(t *testing.T) {
	h := NewHub(LevelMetrics)
	tf := stats.NewTraffic()
	tf.RecordTx(protocol.KindPoll, 32)
	tf.RecordTx(protocol.KindInvalid, 8) // out-of-range kind stays visible
	h.AttachTraffic(tf)

	h.Finish(time.Minute)
	snap := h.Snapshot()
	if got := snap.CounterValue("rpcc_tx_total", Label{"kind", "POLL"}); got != 1 {
		t.Errorf("rpcc_tx_total{POLL} = %g, want 1", got)
	}
	if got := snap.CounterValue("rpcc_invalid_kind_total"); got != 1 {
		t.Errorf("rpcc_invalid_kind_total = %g, want 1", got)
	}
	if got := snap.CounterValue("rpcc_sim_seconds"); got != 60 {
		t.Errorf("rpcc_sim_seconds = %g, want 60", got)
	}
}
