package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// TestRunWithTraceInvisible: enabling tracing must not perturb the run —
// the Result is identical to an untraced same-seed run, and the trace
// itself is non-trivial (roots, transit hops, self-consistent parents).
func TestRunWithTraceInvisible(t *testing.T) {
	cfg := scaleTestConfig(24, 7)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	traced, spans, err := RunWithTrace(cfg, telemetry.NewHub(telemetry.LevelMetrics))
	if err != nil {
		t.Fatalf("RunWithTrace: %v", err)
	}
	if got, want := stripVolatile(traced), stripVolatile(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("tracing perturbed the run:\n got %+v\nwant %+v", got, want)
	}
	if len(spans) == 0 {
		t.Fatal("traced run produced no spans")
	}
	ids := make(map[uint64]bool, len(spans))
	var roots, transit int
	for _, s := range spans {
		ids[s.ID] = true
		if s.Parent == 0 {
			roots++
		}
		if s.Phase == ctrace.PhaseTransit {
			transit++
		}
	}
	if roots == 0 {
		t.Fatal("no root spans (queries never start traces)")
	}
	if transit == 0 {
		t.Fatal("no transit spans (netsim hook not wired)")
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %x has dangling parent %x", s.ID, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span %x ends before it starts: [%d, %d]", s.ID, s.StartNs, s.EndNs)
		}
	}
}

// TestScaleTraceMergeDeterministic pins the span-merge contract: a
// four-region sharded run produces the same trace bytes on every run —
// region collectors merge in canonical (StartNs, Region, Seq) order, a
// pure function of the spans themselves.
func TestScaleTraceMergeDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := ScaleConfig{Config: scaleTestConfig(96, 13), Shards: 4, Trace: true}
		res, err := RunScale(cfg)
		if err != nil {
			t.Fatalf("RunScale: %v", err)
		}
		if len(res.Spans) == 0 {
			t.Fatal("traced scale run produced no spans")
		}
		regions := map[int]bool{}
		for _, s := range res.Spans {
			regions[s.Region] = true
		}
		if len(regions) != 4 {
			t.Fatalf("spans from %d regions, want 4", len(regions))
		}
		var buf bytes.Buffer
		if err := ctrace.WriteJSONL(&buf, res.Spans); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed sharded trace output is not byte-identical")
	}
}

// TestScaleKernelStats: the scale run exposes per-region introspection —
// deterministic event counts populated, imbalance gauges sane.
func TestScaleKernelStats(t *testing.T) {
	cfg := ScaleConfig{Config: scaleTestConfig(90, 11), Shards: 3}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	ks := res.KernelStats
	if len(ks.Shards) != 3 {
		t.Fatalf("stats for %d shards, want 3", len(ks.Shards))
	}
	for i, s := range ks.Shards {
		if s.Shard != i {
			t.Fatalf("shard %d labelled %d", i, s.Shard)
		}
		if s.EventsFired == 0 {
			t.Fatalf("shard %d fired no events", i)
		}
		if s.BusyNs <= 0 || s.StallNs < 0 {
			t.Fatalf("shard %d busy=%d stall=%d", i, s.BusyNs, s.StallNs)
		}
	}
	if ks.EventImbalance < 1 || ks.WallImbalance < 1 {
		t.Fatalf("imbalance gauges below 1: event=%v wall=%v", ks.EventImbalance, ks.WallImbalance)
	}
}
