package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
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

func TestNilHubIsInert(t *testing.T) {
	var h *Hub
	if h.Tracer() != nil {
		t.Error("nil hub returned a tracer")
	}
	h.QueryIssued(consistency.LevelStrong)
	h.QueryAnswered(consistency.LevelDelta, time.Second, 0, "none")
	h.QueryFailed(consistency.LevelWeak, "no-route")
	h.RoleTransition("cache", "relay", "r")
	h.FaultEvent(FaultCrash)
	h.RelayMembership(MembershipApply)
	h.PollStage(PollDirect)
	h.RelayForget()
	h.Coeff(0.1, 0.2, 0.3)
	h.AttachTraffic(nil)
	h.Finish(time.Hour)
	h.Counter("x_total", "h").Inc() // nil handle, nil-safe Inc
	if h.Snapshot() != nil {
		t.Error("nil hub produced a snapshot")
	}
	if NewHub(LevelOff) != nil {
		t.Error("NewHub(LevelOff) should return the nil hub")
	}
}

// TestLabelledHubCountersAreMemoised: RoleTransition, QueryFailed and a
// violating QueryAnswered count into the same registry series as before,
// but look the handle up on the hub — the steady-state call must not
// rebuild the label signature.
func TestLabelledHubCountersAreMemoised(t *testing.T) {
	h := NewHub(LevelMetrics)
	h.RoleTransition("cache", "candidate", "eligible")
	h.QueryFailed(consistency.LevelStrong, "poll-timeout")
	h.QueryAnswered(consistency.LevelStrong, time.Second, time.Minute, "strong-stale")
	// AllocsPerRun runs the loop twice (a warm-up, then the measured run),
	// so each series ends at 1 + 2·100.
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			h.RoleTransition("cache", "candidate", "eligible")
			h.QueryFailed(consistency.LevelStrong, "poll-timeout")
			h.QueryAnswered(consistency.LevelStrong, time.Second, time.Minute, "strong-stale")
		}
	}); total != 0 {
		t.Errorf("100 steady-state RoleTransition+QueryFailed+QueryAnswered rounds allocate %.0f objects, want 0", total)
	}
	h.RoleTransition("candidate", "cache", "demoted")
	h.QueryFailed(consistency.LevelWeak, "crash")
	stale := h.reg.Counter("rpcc_audit_violations_total", "Answers violating their consistency level.",
		Label{"class", "strong-stale"})
	if stale.Value() != 201 {
		t.Errorf("registry series read %d strong-stale answers, want 201", stale.Value())
	}
	role := h.reg.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
		Label{"from", "cache"}, Label{"to", "candidate"}, Label{"reason", "eligible"})
	fail := h.reg.Counter("rpcc_query_failures_total", "Failed queries by reason.",
		Label{"reason", "poll-timeout"})
	if role.Value() != 201 || fail.Value() != 201 {
		t.Errorf("registry series read %d transitions, %d failures; want 201 each", role.Value(), fail.Value())
	}
	demoted := h.reg.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
		Label{"from", "candidate"}, Label{"to", "cache"}, Label{"reason", "demoted"})
	if demoted.Value() != 1 {
		t.Errorf("second label set read %d, want 1", demoted.Value())
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
