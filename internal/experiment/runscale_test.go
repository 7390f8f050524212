package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/workload"
)

// scaleTestConfig is a short Table-1-shaped scenario sized for unit
// tests.
func scaleTestConfig(n int, seed int64) Config {
	cfg := DefaultConfig(StrategyRPCCSC, seed)
	cfg.NPeers = n
	cfg.SimTime = 2 * time.Minute
	return cfg
}

// stripVolatile clears the fields that legitimately differ between the
// plain and sharded paths (snapshot pointers, the embedded Config) so
// the rest can be compared wholesale.
func stripVolatile(r Result) Result {
	r.Telemetry = nil
	r.Config = Config{}
	return r
}

// TestRunScaleSerialMatchesRun: below the auto-shard floor RunScale is
// one region on shard 0's kernel, which is seeded like a plain kernel —
// so the whole Result must match Run exactly.
func TestRunScaleSerialMatchesRun(t *testing.T) {
	cfg := scaleTestConfig(24, 7)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	scaled, err := RunScale(ScaleConfig{Config: cfg})
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if scaled.Shards != 1 {
		t.Fatalf("auto-sharding picked %d shards for %d peers", scaled.Shards, cfg.NPeers)
	}
	if got, want := stripVolatile(scaled.Result), stripVolatile(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard RunScale diverges from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunScaleRegionIsAStandaloneRun states the independence RunScale
// rests on as an executable fact: region i's Result and spans are what
// its sub-config yields run alone, traced under region id i, on a plain
// kernel seeded root+i·goldenGamma (the literal below is sim's constant)
// — and the merge leaves the regions' own snapshots alone.
func TestRunScaleRegionIsAStandaloneRun(t *testing.T) {
	cfg := ScaleConfig{Config: scaleTestConfig(96, 11), Shards: 4, Trace: true}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	const goldenGamma = int64(-0x61C8864680B583EB)
	sets := make([][]ctrace.Span, cfg.Shards)
	for i, got := range res.PerShard {
		sub := regionConfig(cfg.Config, cfg.Shards, i)
		sub.Seed += int64(i) * goldenGamma
		tracer := ctrace.NewCollector(i)
		_, want, err := run(sub, WithTracer(tracer))
		if err != nil {
			t.Fatalf("region %d alone: %v", i, err)
		}
		if got, want := stripVolatile(got), stripVolatile(want); !reflect.DeepEqual(got, want) {
			t.Errorf("region %d is not its standalone run:\n got %+v\nwant %+v", i, got, want)
		}
		if got.Telemetry == res.Telemetry {
			t.Errorf("region %d's snapshot is the merged one", i)
		}
		if got.Telemetry.SimSeconds != cfg.SimTime.Seconds() {
			t.Errorf("region %d snapshot covers %v sim-seconds, want %v", i, got.Telemetry.SimSeconds, cfg.SimTime.Seconds())
		}
		sets[i] = tracer.Export()
	}
	if !reflect.DeepEqual(res.Spans, ctrace.Merge(sets...)) {
		t.Error("merged trace is not the merge of the standalone traces")
	}
	if want := float64(cfg.Shards) * cfg.SimTime.Seconds(); res.Telemetry.SimSeconds != want {
		t.Errorf("merged snapshot covers %v sim-seconds, want %v", res.Telemetry.SimSeconds, want)
	}
}

// TestRunScaleSharded runs four traced regions with GOMAXPROCS 1 (the
// caller runs every region itself: the serial reference) and 4 (three
// workers share them), checks results and merged spans are identical,
// and that the consistency invariants hold in every region. The regions
// are built on those workers too, so under `make race` this is also the
// audit that a world's per-node arrays — stream family, waypoints,
// batteries, tick and demand records, kinetic rows — share nothing.
func TestRunScaleSharded(t *testing.T) {
	cfg := ScaleConfig{Config: scaleTestConfig(96, 11), Shards: 4, Trace: true}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := RunScale(cfg)
	if err != nil {
		t.Fatalf("RunScale(GOMAXPROCS=1): %v", err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := RunScale(cfg)
	if err != nil {
		t.Fatalf("RunScale(GOMAXPROCS=4): %v", err)
	}

	if serial.Shards != 4 || len(serial.PerShard) != 4 {
		t.Fatalf("expected 4 shards, got %d (%d results)", serial.Shards, len(serial.PerShard))
	}
	if serial.Answered == 0 {
		t.Fatal("no queries answered across the fleet")
	}
	for i, r := range serial.PerShard {
		if r.Answered == 0 {
			t.Errorf("region %d answered nothing", i)
		}
		if r.TornAnswers != 0 || r.FutureAnswers != 0 {
			t.Errorf("region %d consistency violations: torn=%d future=%d", i, r.TornAnswers, r.FutureAnswers)
		}
	}
	if serial.Topology.KineticSamples == 0 {
		t.Fatal("kinetic plane produced no incremental samples")
	}
	if len(serial.Spans) == 0 {
		t.Fatal("traced run produced no spans")
	}

	for i := range serial.PerShard {
		if got, want := stripVolatile(parallel.PerShard[i]), stripVolatile(serial.PerShard[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d diverges between core counts:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if got, want := stripVolatile(parallel.Result), stripVolatile(serial.Result); !reflect.DeepEqual(got, want) {
		t.Fatalf("four cores diverge from one:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(parallel.Spans, serial.Spans) {
		t.Fatal("merged spans diverge between core counts")
	}
	if parallel.Topology != serial.Topology {
		t.Fatal("topology counters diverge between core counts")
	}
}

// TestRunScaleSetupErrorNotLost: regions assemble on the kernel's
// workers, and a region that cannot be assembled fails the run; every
// region's error comes back, joined in region order however the workers
// finished.
func TestRunScaleSetupErrorNotLost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := ScaleConfig{Config: scaleTestConfig(96, 11), Shards: 4}
	cfg.Popularity = workload.PopularityCached // needs WarmCaches, which only assembly checks
	cfg.WarmCaches = false
	_, err := RunScale(cfg)
	if err == nil {
		t.Fatal("RunScale assembled regions it cannot")
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 4 {
		t.Fatalf("RunScale = %v, want one error per region", err)
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, fmt.Sprintf("experiment: shard %d assemble", i)) {
			t.Fatalf("error %d = %q, want shard %d's assemble error", i, l, i)
		}
	}
}

// TestRunScaleReleasesEachRegion: a region's whole life is one call, so
// with one worker a finished region is garbage before the next one
// finishes and the live heap stays at about one region however many
// there are. The seam measures the heap after a collection as each
// region's call ends, that region still in hand; a run that kept its
// regions to the merge — their Worlds, or only their kernels, whose
// pending timers hold the whole stack — would grow by a region each.
func TestRunScaleReleasesEachRegion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := ScaleConfig{Config: scaleBoundsConfig(2400, 3), Shards: 4}
	cfg.SimTime = 5 * time.Second
	var heap []int64
	regionDone = func(_ int, w *World) {
		heap = append(heap, liveHeap())
		runtime.KeepAlive(w)
	}
	defer func() { regionDone = nil }()
	base := liveHeap()
	if _, err := RunScale(cfg); err != nil {
		t.Fatal(err)
	}
	if len(heap) != cfg.Shards {
		t.Fatalf("seam saw %d regions, want %d", len(heap), cfg.Shards)
	}
	region := heap[0] - base
	t.Logf("live heap over the run's base per region's end: %v (one region ≈ %d B)", heap, region)
	for i, h := range heap[1:] {
		if grown := h - heap[0]; grown > region/2 {
			t.Errorf("region %d ends with %d B more live than region 0 (one region is %d B): finished regions are kept", i+1, grown, region)
		}
	}
}

// TestRunScaleValidation covers shard-count edge cases.
func TestRunScaleValidation(t *testing.T) {
	cfg := ScaleConfig{Config: scaleTestConfig(10, 1), Shards: 8}
	if _, err := RunScale(cfg); err == nil {
		t.Error("8 shards over 10 peers accepted (leaves <2 per region)")
	}
	cfg.Shards = -1
	if _, err := RunScale(cfg); err == nil {
		t.Error("negative shard count accepted")
	}
	if got := autoShards(100_000); got != 16 {
		t.Errorf("autoShards(100k) = %d, want 16", got)
	}
	if got := autoShards(50); got != 1 {
		t.Errorf("autoShards(50) = %d, want 1", got)
	}
}

// TestRunScaleRejectsCampaign: regions are independent runs with no one
// plane to schedule a campaign's partitions and crashes across them.
func TestRunScaleRejectsCampaign(t *testing.T) {
	cfg := ScaleConfig{Config: scaleTestConfig(24, 1)}
	cfg.Faults = faults.Demo(cfg.NPeers)
	if _, err := RunScale(cfg); err == nil || !strings.Contains(err.Error(), "fault campaign") {
		t.Fatalf("RunScale with a campaign = %v, want a fault-campaign rejection", err)
	}
}
