package trace

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/manetlab/rpcc/internal/protocol"
)

// TestNilCollectorNoOps pins the disabled contract: every method on a nil
// collector is a no-op returning zero values, so instrumentation sites
// need no feature flag beyond the pointer itself.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	if c.Len() != 0 || c.Export() != nil {
		t.Fatal("nil collector not inert")
	}
	ctx := c.StartTrace(5, 1, PhaseQuery, "query")
	if !ctx.Zero() {
		t.Fatalf("nil StartTrace returned %+v", ctx)
	}
	if child := c.StartChild(6, protocol.TraceContext{TraceID: 9, SpanID: 9}, 1, PhasePoll, "p"); !child.Zero() {
		t.Fatalf("nil StartChild returned %+v", child)
	}
	c.Finish(protocol.TraceContext{TraceID: 9, SpanID: 9}, 7) // must not panic
	if e := c.Emit(protocol.TraceContext{TraceID: 9, SpanID: 9}, 1, PhaseTransit, "t", 1, 2); !e.Zero() {
		t.Fatalf("nil Emit returned %+v", e)
	}
	if ev := c.Event(5, 1, PhaseRole, "cache>candidate:eligible", Annot{Item: 3}); !ev.Zero() {
		t.Fatalf("nil Event returned %+v", ev)
	}
	if c.Refused() != 0 {
		t.Fatal("nil collector refused spans")
	}
	// The two annotating calls sit on paths that run untraced by default
	// (every role transition, fault and resolved query): they must cost
	// nothing there — in particular the Annot argument must not be moved
	// to the heap on entry.
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			c.Event(5, 1, PhaseFault, "crash", Annot{Item: -1})
			c.FinishNoted(protocol.TraceContext{TraceID: 9, SpanID: 9}, 7, "local", Annot{Item: 3, Level: "SC", Verdict: "none"})
		}
	}); total != 0 {
		t.Fatalf("100 Event+FinishNoted calls on a nil collector allocate %.0f objects, want 0", total)
	}
}

// TestBoundedCollectorRefusesPastLimit: a collector at its bound records
// nothing new and counts what it turned away; because a refused span
// hands out the zero context, whatever would have hung under it is never
// attempted, so every exported span's parent still resolves.
func TestBoundedCollectorRefusesPastLimit(t *testing.T) {
	c := NewBoundedCollector(1, 4)
	root := buildQueryTrace(c) // 5 spans asked for, the 5th (a transit) refused
	if c.Len() != 4 || c.Refused() != 1 {
		t.Fatalf("held %d spans, refused %d; want 4 and 1", c.Len(), c.Refused())
	}
	for i := 0; i < 3; i++ {
		r := c.StartTrace(200, 2, PhaseQuery, "query")
		if !r.Zero() {
			t.Fatalf("root %d past the bound got context %+v", i, r)
		}
		// The untraced operation's children and resolution are no-ops.
		if ch := c.StartChild(201, r, 2, PhasePoll, "poll-direct"); !ch.Zero() {
			t.Fatalf("child of a refused root got context %+v", ch)
		}
		c.FinishNoted(r, 210, "local", Annot{Item: 1})
	}
	if ev := c.Event(300, 2, PhaseRole, "cache>candidate:eligible", Annot{Item: 1}); !ev.Zero() {
		t.Fatalf("event past the bound got context %+v", ev)
	}
	if ch := c.StartChild(301, root, 1, PhasePoll, "poll-ring"); !ch.Zero() {
		t.Fatalf("child of a held root past the bound got context %+v", ch)
	}
	if c.Len() != 4 || c.Refused() != 6 {
		t.Fatalf("held %d spans, refused %d; want 4 and 6 (1 transit, 3 roots, 1 event, 1 child)", c.Len(), c.Refused())
	}
	spans := c.Export()
	ids := map[uint64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %x names refused parent %x", s.ID, s.Parent)
		}
	}
	if spans[0].EndNs != 100 || spans[0].Name != "poll-direct" {
		t.Fatalf("a held open span could not be finished at the bound: %+v", spans[0])
	}
}

// TestUntracedParentStaysUntraced: children of a zero context are zero —
// an untraced operation never sprouts spans halfway down.
func TestUntracedParentStaysUntraced(t *testing.T) {
	c := NewCollector(0)
	if child := c.StartChild(5, protocol.TraceContext{}, 1, PhasePoll, "p"); !child.Zero() {
		t.Fatalf("child of zero context: %+v", child)
	}
	if e := c.Emit(protocol.TraceContext{}, 1, PhaseTransit, "t", 1, 2); !e.Zero() {
		t.Fatalf("emit under zero context: %+v", e)
	}
	if c.Len() != 0 {
		t.Fatalf("untraced ops recorded %d spans", c.Len())
	}
}

func buildQueryTrace(c *Collector) protocol.TraceContext {
	// A miniature SC query: root → poll stage → (transit out, serve,
	// transit back), answered at 100.
	root := c.StartTrace(0, 1, PhaseQuery, "query")
	stage := c.StartChild(0, root, 1, PhasePoll, "poll-direct")
	out := c.Emit(stage, 2, PhaseTransit, "POLL", 0, 20)
	serve := c.Emit(out, 2, PhaseServe, "POLL_ACK_A", 20, 30)
	c.Emit(serve, 1, PhaseTransit, "POLL_ACK_A", 30, 90)
	c.Finish(stage, 90)
	c.FinishAs(root, 100, "poll-direct")
	return root
}

// TestIDRegionDisjoint: two regions' ids never collide, and region ids
// survive the round trip into span records.
func TestIDRegionDisjoint(t *testing.T) {
	a, b := NewCollector(0), NewCollector(3)
	ca := a.StartTrace(0, 1, PhaseQuery, "q")
	cb := b.StartTrace(0, 1, PhaseQuery, "q")
	if ca.TraceID == cb.TraceID {
		t.Fatalf("regions share trace id %d", ca.TraceID)
	}
	if got := b.Export()[0].Region; got != 3 {
		t.Fatalf("region = %d, want 3", got)
	}
	if cb.TraceID>>regionShift != 3 {
		t.Fatalf("trace id %x missing region in high bits", cb.TraceID)
	}
}

// TestCriticalPathTelescopes pins the decomposition identity: the sum of
// per-segment self times equals the root duration exactly.
func TestCriticalPathTelescopes(t *testing.T) {
	c := NewCollector(0)
	buildQueryTrace(c)
	paths := ExtractCriticalPaths(c.Export())
	if len(paths) != 1 {
		t.Fatalf("%d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.TotalNs != 100 {
		t.Fatalf("TotalNs = %d, want 100", p.TotalNs)
	}
	var sum int64
	for _, seg := range p.Segments {
		sum += seg.SelfNs
		if seg.SelfNs < 0 {
			t.Fatalf("negative self time %d in %s", seg.SelfNs, seg.Span.Phase)
		}
	}
	if sum != p.TotalNs {
		t.Fatalf("self times sum to %d, root duration %d", sum, p.TotalNs)
	}
	// The waited-on chain: query → poll → return transit is the last
	// thing to finish inside the stage.
	wantPhases := []string{PhaseQuery, PhasePoll, PhaseTransit}
	if len(p.Segments) != len(wantPhases) {
		t.Fatalf("path has %d segments, want %d: %+v", len(p.Segments), len(wantPhases), p.Segments)
	}
	for i, ph := range wantPhases {
		if p.Segments[i].Span.Phase != ph {
			t.Fatalf("segment %d phase %s, want %s", i, p.Segments[i].Span.Phase, ph)
		}
	}
}

// TestCriticalPathSkipsOverrunningChildren: a child that outlives its
// parent (a flood arm still in flight after the poll stage escalated) is
// not on the waited-on path.
func TestCriticalPathSkipsOverrunningChildren(t *testing.T) {
	c := NewCollector(0)
	root := c.StartTrace(0, 1, PhaseQuery, "query")
	stage := c.StartChild(0, root, 1, PhasePoll, "poll-ring")
	c.Emit(stage, 5, PhaseTransit, "POLL", 0, 500) // arm outliving everything
	c.Emit(stage, 2, PhaseTransit, "POLL", 0, 40)
	c.Finish(stage, 50)
	c.FinishAs(root, 60, "poll-ring")
	paths := ExtractCriticalPaths(c.Export())
	p := paths[0]
	var sum int64
	for _, seg := range p.Segments {
		sum += seg.SelfNs
		if seg.Span.EndNs > 60 {
			t.Fatalf("overrunning child on critical path: %+v", seg.Span)
		}
	}
	if sum != 60 {
		t.Fatalf("self times sum to %d, want 60", sum)
	}
}

// TestMergeCanonicalOrder: merging per-region span sets in any
// concatenation order yields the same canonical sequence.
func TestMergeCanonicalOrder(t *testing.T) {
	a, b := NewCollector(0), NewCollector(1)
	buildQueryTrace(a)
	buildQueryTrace(b)
	ab := Merge(a.Export(), b.Export())
	ba := Merge(b.Export(), a.Export())
	var bufAB, bufBA bytes.Buffer
	if err := WriteJSONL(&bufAB, ab); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&bufBA, ba); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufAB.Bytes(), bufBA.Bytes()) {
		t.Fatal("merge order leaked into canonical output")
	}
}

// TestJSONLRoundTrip: Write→Read reproduces the spans and a second Write
// is byte-identical.
func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector(2)
	buildQueryTrace(c)
	noted := c.StartTrace(110, 3, PhaseQuery, "query")
	c.FinishNoted(noted, 120, "local", Annot{Item: 0, Level: "DC", Served: 4, StaleNs: -1, Verdict: "none"})
	crash := c.Event(130, -1, PhaseFault, "assassination", Annot{Item: 3})
	c.Emit(crash, 7, PhaseFault, "assassination", 130, 130)
	c.Event(140, 7, PhaseRole, "relay>cache:demoted", Annot{Item: 3, CAR: 0.25, CS: 0.5, CE: 0.125})
	spans := c.Export()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"annot"`)); n != 3 {
		t.Fatalf("%d lines carry an annotation, want only the 3 annotated roots:\n%s", n, buf.String())
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(spans))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], spans[i]) {
			t.Fatalf("span %d drifted: %+v vs %+v", i, got[i], spans[i])
		}
	}
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestPhaseTotalsAndTopK sanity: totals cover every segment and TopK
// sorts by total descending without mutating the input.
func TestPhaseTotalsAndTopK(t *testing.T) {
	c := NewCollector(0)
	buildQueryTrace(c)
	root2 := c.StartTrace(200, 4, PhaseQuery, "query")
	c.FinishAs(root2, 205, "local")
	paths := ExtractCriticalPaths(c.Export())
	if len(paths) != 2 {
		t.Fatalf("%d paths, want 2", len(paths))
	}
	phases, totals, counts := PhaseTotals(paths)
	var sum int64
	for _, ph := range phases {
		sum += totals[ph]
		if counts[ph] == 0 {
			t.Fatalf("phase %s has zero count", ph)
		}
	}
	if sum != paths[0].TotalNs+paths[1].TotalNs {
		t.Fatalf("phase totals %d != path totals %d", sum, paths[0].TotalNs+paths[1].TotalNs)
	}
	top := TopK(paths, 1)
	if len(top) != 1 || top[0].TotalNs != 100 {
		t.Fatalf("TopK(1) = %+v", top)
	}
	if paths[0].Root.StartNs > paths[1].Root.StartNs {
		t.Fatal("TopK disturbed canonical input order")
	}
}
