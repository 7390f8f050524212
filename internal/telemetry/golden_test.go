package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/merged.prom from the current export")

// goldenSnapshot is one region's registry for TestMergedExportMatchesGolden:
// the hub's own families, the two-label drop series, a three-label role
// series, and label values whose bytes sort below the ',' and '=' that
// join a rendered label set (a space, a ':'), so export order can differ
// from a label-by-label order. Each region registers in its own order and
// holds series the others lack.
func goldenSnapshot(region int) *Snapshot {
	h := NewHub(LevelMetrics)
	r := h.reg
	reasons := []string{"audit-error:stale copy", "audit-error: torn", "audit-error", "poll-timeout", "fetch timeout"}
	causes := []string{"loss", "partition", "disconnected", "ttl", "loss burst"}
	kinds := []string{"POLL", "POLL_ACK_A", "INVALIDATION", "unknown"}
	for i := range reasons {
		reason := reasons[(i+region)%len(reasons)]
		if (i+2*region)%4 == 3 {
			continue
		}
		r.Counter("rpcc_query_failures_total", "Failed queries by reason.", Label{"reason", reason}).Add(uint64(1 + i + region))
	}
	for i, kind := range kinds {
		for j, cause := range causes {
			if (i+j+region)%3 == 0 {
				continue
			}
			r.Counter("rpcc_dropped_total", "Messages abandoned in flight, by cause.",
				Label{"kind", kind}, Label{"cause", cause}).Add(uint64(i*7 + j + region + 1))
		}
	}
	r.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
		Label{"from", "cache"}, Label{"to", "candidate"}, Label{"reason", "car up"}).Add(uint64(region + 2))
	r.Counter("rpcc_role_transitions_total", "Fig 5 role transitions.",
		Label{"reason", "car"}, Label{"to", "candidate"}, Label{"from", "cache"}).Add(1)
	// Label sets with different keys in one family: an empty set, a key
	// that prefixes another, and a set whose second label extends the
	// first.
	mixed := [][]Label{
		{},
		{{"a", "1"}},
		{{"a", "1"}, {"b", "2"}},
		{{"ab", "1"}},
		{{"a", "1 "}},
		{{"a", "1:"}},
	}
	for i := range mixed {
		ls := mixed[(i+2*region)%len(mixed)]
		r.Counter("mixed_total", "Label sets of different keys.", ls...).Add(uint64(10*region + i + 1))
	}
	for i, level := range []string{"strong", "delta", "weak"} {
		lat := r.Histogram("rpcc_query_latency_seconds", "Issue-to-answer latency per consistency level.",
			TimeBuckets, Label{"level", level})
		for k := 0; k <= i+region; k++ {
			lat.Observe(0.0007 * float64(1+k*k*(region+1)))
		}
	}
	r.Gauge("pending_items", "Work left at the end.", Label{"queue", "relay:0"}).Set(float64(region) + 0.5)
	h.Finish(10 * time.Second)
	return h.Snapshot()
}

// TestMergedExportMatchesGolden pins the Prometheus bytes of three merged
// region snapshots, registered in different orders with different series,
// against testdata/merged.prom: families by name and each family's series
// in the byte order of their rendered label sets, "k1=v1,k2=v2".
func TestMergedExportMatchesGolden(t *testing.T) {
	merged := &Snapshot{}
	for region := range 3 {
		if err := merged.Merge(goldenSnapshot(region)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, merged); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "merged.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("merged export differs from %s:\n%s", path, buf.String())
	}
}
