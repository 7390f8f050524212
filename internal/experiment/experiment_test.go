package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/workload"
)

// shortConfig returns a Table 1 scenario shrunk to a test-friendly
// duration. Seeds are fixed so assertions on relative metrics are stable.
func shortConfig(s StrategyKind) Config {
	cfg := DefaultConfig(s, 7)
	cfg.SimTime = 10 * time.Minute
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"unknown strategy", func(c *Config) { c.Strategy = "nope" }, false},
		{"one peer", func(c *Config) { c.NPeers = 1 }, false},
		{"bad area", func(c *Config) { c.AreaWidth = 0 }, false},
		{"zero cache", func(c *Config) { c.CacheNum = 0 }, false},
		{"zero range", func(c *Config) { c.CommRange = 0 }, false},
		{"zero sim time", func(c *Config) { c.SimTime = 0 }, false},
		{"zero ttl", func(c *Config) { c.BroadcastTTL = 0 }, false},
		{"bad speeds", func(c *Config) { c.MaxSpeed = 0.1 }, false},
		{"bad churn", func(c *Config) { c.MeanDown = 0 }, false},
		{"churn disabled skips churn check", func(c *Config) { c.MeanDown = 0; c.ChurnDisabled = true }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := shortConfig(StrategyPull)
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestStrategyKindValid(t *testing.T) {
	for _, s := range AllPaperStrategies() {
		if !s.Valid() {
			t.Errorf("%s invalid", s)
		}
	}
	for _, s := range []StrategyKind{"bogus", "adaptive-pull", "gpsce", ""} {
		if s.Valid() {
			t.Errorf("%q valid", s)
		}
	}
}

// runShort caches one run per strategy for the assertion tests below.
var runCache = map[StrategyKind]Result{}

func runShort(t *testing.T, s StrategyKind) Result {
	t.Helper()
	if r, ok := runCache[s]; ok {
		return r
	}
	r, err := Run(shortConfig(s))
	if err != nil {
		t.Fatalf("Run(%s): %v", s, err)
	}
	runCache[s] = r
	return r
}

func TestRunProducesAnswersForEveryStrategy(t *testing.T) {
	for _, s := range AllPaperStrategies() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r := runShort(t, s)
			if r.Issued == 0 {
				t.Fatal("no queries issued")
			}
			if r.AnswerRate() < 0.3 {
				t.Errorf("answer rate %.2f suspiciously low", r.AnswerRate())
			}
			if r.TotalTx == 0 {
				t.Error("no traffic recorded")
			}
			if r.TornAnswers != 0 || r.FutureAnswers != 0 {
				t.Errorf("integrity violations: torn=%d future=%d", r.TornAnswers, r.FutureAnswers)
			}
		})
	}
}

func TestPullIsTrafficHeaviest(t *testing.T) {
	pull := runShort(t, StrategyPull)
	for _, s := range []StrategyKind{StrategyPush, StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY} {
		r := runShort(t, s)
		if r.TotalTx >= pull.TotalTx {
			t.Errorf("%s traffic %d >= pull %d; Fig 7 ordering broken", s, r.TotalTx, pull.TotalTx)
		}
	}
}

func TestWeakConsistencyIsCheapest(t *testing.T) {
	wc := runShort(t, StrategyRPCCWC)
	for _, s := range []StrategyKind{StrategyPull, StrategyPush, StrategyRPCCSC, StrategyRPCCHY} {
		r := runShort(t, s)
		if wc.TotalTx >= r.TotalTx {
			t.Errorf("rpcc-wc traffic %d >= %s %d", wc.TotalTx, s, r.TotalTx)
		}
	}
	if wc.AnswerRate() < 0.99 {
		t.Errorf("weak answers should be local; answer rate %.2f", wc.AnswerRate())
	}
}

func TestPushLatencyDominates(t *testing.T) {
	push := runShort(t, StrategyPush)
	pull := runShort(t, StrategyPull)
	sc := runShort(t, StrategyRPCCSC)
	// Fig 8: push latency is governed by the IR interval — orders of
	// magnitude above the polling strategies.
	if push.MeanLatency < 10*pull.MeanLatency {
		t.Errorf("push latency %v not ≫ pull %v", push.MeanLatency, pull.MeanLatency)
	}
	if push.MeanLatency < 10*sc.MeanLatency {
		t.Errorf("push latency %v not ≫ rpcc-sc %v", push.MeanLatency, sc.MeanLatency)
	}
	// RPCC(SC) stays at the pull level (same order of magnitude).
	if sc.MeanLatency > 20*pull.MeanLatency {
		t.Errorf("rpcc-sc latency %v far above pull %v", sc.MeanLatency, pull.MeanLatency)
	}
}

func TestRPCCFormsRelays(t *testing.T) {
	sc := runShort(t, StrategyRPCCSC)
	if sc.RelayCount == 0 {
		t.Fatal("no relay peers formed in the default scenario")
	}
	if sc.RoleRelay == 0 {
		t.Fatal("no node holds the relay role")
	}
	pull := runShort(t, StrategyPull)
	if pull.RelayCount != 0 {
		t.Error("pull reported relay peers")
	}
}

func TestFig9TrafficFallsWithTTL(t *testing.T) {
	run := func(ttl int) Result {
		cfg := shortConfig(StrategyRPCCSC)
		cfg.SimTime = 20 * time.Minute
		cfg.Popularity = workload.PopularitySingle
		cfg.InvalidationTTL = ttl
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	low := run(1)
	high := run(7)
	if high.TotalTx >= low.TotalTx {
		t.Errorf("traffic at TTL7 (%d) not below TTL1 (%d); Fig 9a shape broken",
			high.TotalTx, low.TotalTx)
	}
	if high.RelayCount <= low.RelayCount {
		t.Errorf("relay count at TTL7 (%d) not above TTL1 (%d)",
			high.RelayCount, low.RelayCount)
	}
	if high.MeanLatency >= low.MeanLatency {
		t.Errorf("latency at TTL7 (%v) not below TTL1 (%v); Fig 9b shape broken",
			high.MeanLatency, low.MeanLatency)
	}
}

func TestRunSweepShapesFigure(t *testing.T) {
	spec := SweepSpec{
		ID:         "mini",
		Title:      "mini sweep",
		XLabel:     "x",
		YLabel:     "y",
		Strategies: []StrategyKind{StrategyRPCCWC},
		Xs:         []float64{1, 2},
		Apply:      func(cfg *Config, x float64) { cfg.CacheNum = int(x) * 5 },
		Metric:     MetricTotalTx,
	}
	base := shortConfig(StrategyRPCCWC)
	base.SimTime = 5 * time.Minute
	fig, err := RunSweep(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	if fig.Series[0].Points[0].X != 1 || fig.Series[0].Points[1].X != 2 {
		t.Error("x values not preserved")
	}
	table := RenderTable(fig, spec.Metric)
	for _, want := range []string{"MINI", "rpcc-wc", "y:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestAllFigureSpecsWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, spec := range AllFigureSpecs() {
		if spec.ID == "" || spec.Title == "" || spec.Metric == nil || spec.Apply == nil {
			t.Errorf("spec %q incomplete", spec.ID)
		}
		if ids[spec.ID] {
			t.Errorf("duplicate spec id %q", spec.ID)
		}
		ids[spec.ID] = true
		if len(spec.Xs) < 2 {
			t.Errorf("spec %q has fewer than 2 sweep points", spec.ID)
		}
		if len(spec.Strategies) == 0 {
			t.Errorf("spec %q has no strategies", spec.ID)
		}
	}
	// Every paper figure must be covered.
	for _, id := range []string{"fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b"} {
		if !ids[id] {
			t.Errorf("missing figure spec %q", id)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := shortConfig(StrategyRPCCSC)
	cfg.SimTime = 5 * time.Minute
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTx != b.TotalTx || a.Issued != b.Issued || a.MeanLatency != b.MeanLatency {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

func TestRenderDetailContainsSections(t *testing.T) {
	r := runShort(t, StrategyRPCCSC)
	out := RenderDetail(r)
	for _, want := range []string{"strategy", "transmissions", "latency", "queries", "audit", "relay peers", "traffic by kind"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderDetail missing %q", want)
		}
	}
}

func TestSingleSourceScenarioSilencesOtherSources(t *testing.T) {
	cfg := shortConfig(StrategyPush)
	cfg.Popularity = workload.PopularitySingle
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only host 0 broadcasts IRs: traffic must be far below the
	// all-sources default scenario.
	full := runShort(t, StrategyPush)
	if r.TotalTx*3 > full.TotalTx {
		t.Errorf("single-source push traffic %d not well below default %d", r.TotalTx, full.TotalTx)
	}
}

func TestFig7cShapePushGrowsPullFlat(t *testing.T) {
	// Fig 7(c)'s two headline claims: cache size barely moves pull's
	// traffic, and grows push's.
	run := func(s StrategyKind, cacheNum int) Result {
		cfg := shortConfig(s)
		cfg.CacheNum = cacheNum
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pullSmall, pullBig := run(StrategyPull, 5), run(StrategyPull, 25)
	ratio := float64(pullBig.TotalTx) / float64(pullSmall.TotalTx)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("pull traffic moved %.2fx across cache sizes; paper says flat", ratio)
	}
	pushSmall, pushBig := run(StrategyPush, 5), run(StrategyPush, 25)
	if pushBig.TotalTx <= pushSmall.TotalTx {
		t.Errorf("push traffic did not grow with cache size: %d -> %d",
			pushSmall.TotalTx, pushBig.TotalTx)
	}
}

func TestFig7bShapePullFallsWithQueryInterval(t *testing.T) {
	run := func(interval time.Duration) Result {
		cfg := shortConfig(StrategyPull)
		cfg.QueryInterval = interval
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	busy, quiet := run(5*time.Second), run(80*time.Second)
	if float64(busy.TotalTx) < 5*float64(quiet.TotalTx) {
		t.Errorf("pull traffic fell only %d -> %d across a 16x query-rate change",
			busy.TotalTx, quiet.TotalTx)
	}
}

func TestDSRRoutingAddsVisibleOverhead(t *testing.T) {
	cfg := shortConfig(StrategyRPCCSC)
	cfg.SimTime = 5 * time.Minute
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseDSRRouting = true
	dsr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rreq uint64
	for _, kc := range dsr.ByKind {
		if kc.Kind.String() == "RREQ" {
			rreq = kc.Tx
		}
	}
	if rreq == 0 {
		t.Fatal("DSR mode recorded no RREQ traffic")
	}
	// Queries must still flow under real routing.
	if dsr.AnswerRate() < oracle.AnswerRate()/2 {
		t.Errorf("DSR answer rate %.2f collapsed vs oracle %.2f",
			dsr.AnswerRate(), oracle.AnswerRate())
	}
}

func TestLossyChannelDegradesGracefully(t *testing.T) {
	cfg := shortConfig(StrategyRPCCWC)
	cfg.SimTime = 5 * time.Minute
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LossRate = 0.2
	lossy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Weak consistency answers locally: even a lossy channel must not
	// break query serving, and no integrity violations may appear.
	if lossy.AnswerRate() < 0.95 {
		t.Errorf("weak answer rate %.2f under loss", lossy.AnswerRate())
	}
	if lossy.TornAnswers != 0 || lossy.FutureAnswers != 0 {
		t.Error("loss produced integrity violations")
	}
	_ = clean
}

func TestEnergyAccounting(t *testing.T) {
	r := runShort(t, StrategyPull)
	if r.EnergyDrained <= 0 {
		t.Error("no energy drained in a traffic-heavy run")
	}
	if r.MinBatteryCE <= 0 || r.MinBatteryCE > 1 {
		t.Errorf("MinBatteryCE = %g outside (0,1]", r.MinBatteryCE)
	}
	// Pull's flooding drains more energy than weak-consistency RPCC.
	wc := runShort(t, StrategyRPCCWC)
	if wc.EnergyDrained >= r.EnergyDrained {
		t.Errorf("rpcc-wc drained %g >= pull %g; message savings must show up as energy savings",
			wc.EnergyDrained, r.EnergyDrained)
	}
}

func TestRunSweepReplicatedAverages(t *testing.T) {
	spec := SweepSpec{
		ID: "avg", Title: "avg", XLabel: "x", YLabel: "y",
		Strategies: []StrategyKind{StrategyRPCCWC},
		Xs:         []float64{1},
		Apply:      func(*Config, float64) {},
		Metric:     MetricTotalTx,
	}
	base := shortConfig(StrategyRPCCWC)
	base.SimTime = 5 * time.Minute
	if _, err := RunSweepReplicated(spec, base, 0); err == nil {
		t.Fatal("zero replicas accepted")
	}
	one, err := RunSweepReplicated(spec, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunSweepReplicated(spec, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := one.Series[0].Points[0].Result.TotalTx
	b := three.Series[0].Points[0].Result.TotalTx
	if b == 0 {
		t.Fatal("averaged result empty")
	}
	// The 3-seed mean should be near (but normally not identical to) the
	// single-seed value.
	ratio := float64(b) / float64(a)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("averaged tx %d wildly off single-seed %d", b, a)
	}
}

func TestEnergyFairnessAndTimeline(t *testing.T) {
	r := runShort(t, StrategyRPCCSC)
	if r.EnergyFairness <= 0 || r.EnergyFairness > 1 {
		t.Errorf("EnergyFairness = %g outside (0,1]", r.EnergyFairness)
	}
	// 50 hosts all idle-drain at the same rate plus traffic: fairness
	// should be reasonably high, not one-node-carries-all.
	if r.EnergyFairness < 0.5 {
		t.Errorf("EnergyFairness = %g suspiciously unfair", r.EnergyFairness)
	}
	if len(r.TrafficTimeline) < 50 {
		t.Errorf("timeline has %d windows, want ~60", len(r.TrafficTimeline))
	}
	var total uint64
	for _, w := range r.TrafficTimeline {
		total += w
	}
	if total == 0 {
		t.Error("timeline recorded no traffic")
	}
	if total > r.TotalTx {
		t.Errorf("timeline total %d exceeds TotalTx %d", total, r.TotalTx)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all zero", []float64{0, 0}, 1},
		{"perfectly even", []float64{5, 5, 5, 5}, 1},
		{"one carries all", []float64{10, 0, 0, 0}, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := jainIndex(tt.xs); got < tt.want-1e-9 || got > tt.want+1e-9 {
				t.Errorf("jainIndex = %g, want %g", got, tt.want)
			}
		})
	}
}
