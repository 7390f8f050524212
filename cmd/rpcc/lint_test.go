package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/stats"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// TestLintTraceVocabularyAndAnnotations: a well-formed trace holding
// every kind of annotated root passes; each rule -trace added for the
// one-record trace (closed phase vocabulary, instantaneous parentless
// role/fault roots, annotations only where they belong) rejects the
// smallest trace that breaks it.
func TestLintTraceVocabularyAndAnnotations(t *testing.T) {
	good := func() []ctrace.Span {
		c := ctrace.NewCollector(0)
		q := c.StartTrace(10, 1, ctrace.PhaseQuery, "query")
		c.Emit(q, 2, ctrace.PhaseTransit, "POLL", 10, 20)
		c.FinishNoted(q, 30, "poll-direct", ctrace.Annot{Item: 2, Level: "SC", Served: 3, StaleNs: -1, Verdict: "none"})
		c.Event(40, 1, ctrace.PhaseRole, "cache>candidate:eligible", ctrace.Annot{Item: 2, CAR: 0.5})
		f := c.Event(50, -1, ctrace.PhaseFault, "partition-split", ctrace.Annot{Item: -1})
		c.Emit(f, 3, ctrace.PhaseFault, "partition-split", 50, 50)
		return c.Export()
	}
	lint := func(spans []ctrace.Span) error {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := ctrace.WriteFile(path, spans); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := lintTrace([]string{path}, 0)
		return err
	}
	if err := lint(good()); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	// Span indexes in good(): 0 query root, 1 transit, 2 role root,
	// 3 fault root, 4 fault child.
	for name, tc := range map[string]struct {
		breakIt func(s []ctrace.Span)
		want    string
	}{
		"unknown phase":           {func(s []ctrace.Span) { s[1].Phase = "wave" }, "unknown phase"},
		"role with duration":      {func(s []ctrace.Span) { s[2].EndNs++ }, "not instantaneous"},
		"role with parent":        {func(s []ctrace.Span) { s[2].Parent, s[2].Trace = s[0].ID, s[0].Trace }, "role span has a parent"},
		"fault root unannotated":  {func(s []ctrace.Span) { s[3].Annot = nil }, "without annotation"},
		"annotated child":         {func(s []ctrace.Span) { s[1].Annot = &ctrace.Annot{} }, "annotation on a transit span"},
		"verdict on a role root":  {func(s []ctrace.Span) { s[2].Annot.Verdict = "none" }, "query annotation on a role root"},
		"coefficients on a query": {func(s []ctrace.Span) { s[0].Annot.CE = 0.1 }, "election coefficients on a query root"},
	} {
		spans := good()
		tc.breakIt(spans)
		if err := lint(spans); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: lint returned %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestLintTraceMergesPerRegionFiles: a trace split into one file per
// region lints exactly as the merged file does, whichever order the
// files are named in.
func TestLintTraceMergesPerRegionFiles(t *testing.T) {
	cfg := experiment.ScaleConfig{Config: experiment.DefaultConfig(experiment.StrategyRPCCSC, 1), Shards: 2, Trace: true}
	cfg.NPeers, cfg.SimTime = 40, 3*time.Minute
	res, err := experiment.RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, spans []ctrace.Span) string {
		path := filepath.Join(dir, name)
		if err := ctrace.WriteFile(path, spans); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var perRegion [2][]ctrace.Span
	for _, s := range res.Spans {
		perRegion[s.Region] = append(perRegion[s.Region], s)
	}
	if len(perRegion[0]) == 0 || len(perRegion[1]) == 0 {
		t.Fatalf("want spans in both regions, got %d and %d", len(perRegion[0]), len(perRegion[1]))
	}
	r0, r1 := write("r0.jsonl", perRegion[0]), write("r1.jsonl", perRegion[1])
	merged := write("merged.jsonl", res.Spans)

	type counts struct{ spans, traces, roots int }
	lint := func(paths ...string) counts {
		t.Helper()
		var c counts
		var err error
		if c.spans, c.traces, c.roots, err = lintTrace(paths, 0); err != nil {
			t.Fatalf("lint %v: %v", paths, err)
		}
		return c
	}
	want := lint(merged)
	for _, paths := range [][]string{{r0, r1}, {r1, r0}} {
		if got := lint(paths...); got != want {
			t.Errorf("lint %v = %+v, lint of the merged file = %+v", paths, got, want)
		}
	}
}

// TestLintPromDropCauseVocabulary: every stats.DropCause label lints
// clean as a cause of rpcc_dropped_total; the out-of-range label
// "invalid" and an unknown cause are rejected.
func TestLintPromDropCauseVocabulary(t *testing.T) {
	lint := func(cause string) error {
		path := filepath.Join(t.TempDir(), "m.prom")
		text := "# TYPE rpcc_dropped_total counter\nrpcc_dropped_total{cause=\"" + cause + "\"} 1\n"
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := lintProm(path)
		return err
	}
	for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
		if err := lint(c.String()); err != nil {
			t.Errorf("cause %q rejected: %v", c, err)
		}
	}
	for _, bad := range []string{stats.NumDropCauses.String(), "invalid", "eaten-by-grue"} {
		if err := lint(bad); err == nil || !strings.Contains(err.Error(), "not in the shared vocabulary") {
			t.Errorf("cause %q: lint returned %v, want a vocabulary error", bad, err)
		}
	}
}
