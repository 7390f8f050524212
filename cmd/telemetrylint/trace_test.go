package main

import (
	"path/filepath"
	"strings"
	"testing"

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
		_, _, _, err := lintTrace(path, 0)
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
