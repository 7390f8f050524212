package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at toy size, timed and traced, and checks
// that each pass emits exactly the metrics BENCHMARK.json names, finite
// and with their units, that the correctness gate holds, and that the
// traced pass writes a span file whose self times account for its root.
func TestSmoke(t *testing.T) {
	nonZero := map[string]bool{} // per-layer metrics seen non-zero on some workload
	for _, w := range workloadSpecs {
		if w.Name == wireName && testing.Short() {
			continue // needs real sockets and wall-clock windows
		}
		t.Run(w.Name, func(t *testing.T) {
			timed, err := runWorkload(w.Name, toySize, 1, 0.05, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkContract(t, timed, endToEnd, true)
			if (timed.Fingerprint == "") != (w.Name == wireName) {
				t.Errorf("sim_fingerprint %q", timed.Fingerprint)
			}

			dir := t.TempDir()
			layers, err := runWorkload(w.Name, toySize, 1, 0.05, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range checkContract(t, layers, perLayer, false) {
				if v != 0 {
					nonZero[name] = true
				}
			}
			checkSpans(t, filepath.Join(dir, w.Name+".spans.jsonl"), w.Name)
		})
	}
	if testing.Short() || t.Failed() {
		return
	}
	// Failure reasons and trace phases are open sets, error counts are
	// zero when all is well, and the toy scale run has a single shard
	// that never stalls; the rest of the table must be filled by at least
	// one workload.
	optional := map[string]bool{"consistency.violation_rate": true, "sim.shard_stall_s": true, "wire.timeouts": true,
		"wire.decode_errors": true, "wire.read_errors": true, "protocol.frame_unmarshal_allocs.poll": true}
	for _, r := range append(failReasons, "other") {
		optional["node.fail_share."+r] = true
	}
	for _, p := range tracePhases {
		optional["trace.phase_share."+p] = true
	}
	for _, m := range perLayer {
		if !nonZero[m.Name] && !optional[m.Name] {
			t.Errorf("per-layer metric %s is zero on every workload", m.Name)
		}
	}
}

// checkContract parses the report's result line and returns its values.
func checkContract(t *testing.T, rep *report, specs []metricSpec, required bool) map[string]float64 {
	t.Helper()
	line := rep.contractLine(specs, required)
	for _, b := range rep.Breaches {
		t.Errorf("breach: %s", b)
	}
	var res childResult
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, table has %d", len(res.Metrics), len(specs))
	}
	known := map[string]bool{}
	out := map[string]float64{}
	for _, s := range specs {
		known[s.Name] = true
		m, ok := res.Metrics[s.Name]
		if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: present=%v unit=%q value=%v", s.Name, ok, m.Unit, m.Value)
		}
		out[s.Name] = m.Value
	}
	for name := range rep.Values {
		if !known[name] {
			t.Errorf("value %s is not in the metric table", name)
		}
	}
	return out
}

func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []hostSpan
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s hostSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Workload != workload || s.Name == "" || s.EndNs < s.StartNs {
			t.Errorf("bad span %+v", s)
		}
		spans = append(spans, s)
	}
	var roots, self int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.EndNs - s.StartNs
		}
	}
	for _, ns := range selfTimes(spans) {
		if ns < 0 {
			t.Errorf("negative self time %d", ns)
		}
		self += ns
	}
	if len(spans) < 5 || self != roots {
		t.Errorf("%d spans, self times %d ns, roots %d ns", len(spans), self, roots)
	}
}

// TestBenchmarkJSON keeps the committed contract file and the tables in
// this package from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkSpec()) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -spec`")
	}
	for _, w := range workloadSpecs {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	tight := func(med float64) summary {
		return summary{Median: med, Q1: med * 0.99, Q3: med * 1.01, Values: []float64{med * 0.99, med, med * 1.01}}
	}
	wide := summary{Median: 100, Q1: 80, Q3: 120, Values: []float64{80, 100, 120}}
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(105), "same"},
		{tight(100), tight(120), "worse"},
		{tight(100), tight(80), "better"},
		{wide, tight(105), "unresolved"},
		{wide, tight(50), "better"}, // every run of b beats every run of a
	} {
		if got := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
}
