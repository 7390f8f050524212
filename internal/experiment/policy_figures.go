package experiment

import (
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/workload"
)

// The extra (non-paper) figure sweeps: replacement-policy comparisons
// under skewed flash-crowd demand, and the read/write-ratio and
// diurnal-load workload sweeps. They live outside AllFigureSpecs so the
// default `figures` output — and the figures_1h.txt regression baseline —
// stays exactly the paper's set; rpcc figures selects them with -extra or
// -only.

// MetricMeanHitRatio is the cache-effectiveness metric of the
// policy-comparison figures.
func MetricMeanHitRatio(r Result) float64 { return r.MeanHitRatio }

// policySeries builds one curve per built-in replacement policy, all
// under the base strategy.
func policySeries() []SeriesDef {
	kinds := cache.AllPolicyKinds()
	defs := make([]SeriesDef, 0, len(kinds))
	for _, kind := range kinds {
		kind := kind
		defs = append(defs, SeriesDef{
			Label: string(kind),
			Apply: func(cfg *Config) { cfg.CachePolicy = kind },
		})
	}
	return defs
}

// applyPolicyPressure configures the demand mix that separates the
// policies: Zipf-skewed cross-item queries (the default cached-domain mix
// never misses, so every policy looks identical) with a flash crowd on
// item 1 through the middle half of the run, and x items of cache per
// node. Warm placement still seeds the stores so eviction pressure is
// immediate.
func applyPolicyPressure(cfg *Config, x float64) {
	cfg.CacheNum = int(x)
	cfg.Popularity = workload.PopularityZipf
	cfg.Hotspots = []workload.Hotspot{{
		Start:    cfg.SimTime / 4,
		Duration: cfg.SimTime / 2,
		Item:     1,
		Weight:   0.8,
	}}
}

// PolicyHitSpec: mean cache hit ratio vs. cache capacity, one curve per
// replacement policy.
func PolicyHitSpec() SweepSpec {
	return SweepSpec{
		ID:     "policy-hit",
		Title:  "Cache hit ratio vs. cache number by replacement policy (flash crowd)",
		XLabel: "cache number (items)",
		YLabel: "mean hit ratio",
		Series: policySeries(),
		Xs:     []float64{3, 5, 8, 10},
		Apply:  applyPolicyPressure,
		Metric: MetricMeanHitRatio,
	}
}

// PolicyLatSpec: query latency vs. cache capacity by replacement policy.
// Shares PolicyHitSpec's simulation matrix (same keys, runs once).
func PolicyLatSpec() SweepSpec {
	s := PolicyHitSpec()
	s.ID = "policy-lat"
	s.Title = "Query latency vs. cache number by replacement policy (flash crowd)"
	s.YLabel = "mean latency (ms)"
	s.Metric = MetricMeanLatencyMs
	return s
}

// RWRatioSpec: network traffic vs. the read/write ratio — x reads per
// write, holding the paper's query interval and stretching the update
// interval to match.
func RWRatioSpec() SweepSpec {
	return SweepSpec{
		ID:         "rw-ratio",
		Title:      "Network traffic vs. read/write ratio",
		XLabel:     "reads per write",
		YLabel:     "messages",
		Strategies: []StrategyKind{StrategyPull, StrategyPush, StrategyRPCCSC},
		Xs:         []float64{1, 3, 9, 27, 81},
		Apply: func(cfg *Config, x float64) {
			cfg.UpdateInterval = time.Duration(x * float64(cfg.QueryInterval))
		},
		Metric: MetricTotalTx,
	}
}

// DiurnalLoadSpec: network traffic vs. the diurnal trough depth. x is
// the trough's query-acceptance probability (1 = flat load, 0 = demand
// dies out overnight); four "days" fit in the run.
func DiurnalLoadSpec() SweepSpec {
	return SweepSpec{
		ID:         "diurnal-load",
		Title:      "Network traffic vs. diurnal trough depth",
		XLabel:     "trough load fraction",
		YLabel:     "messages",
		Strategies: []StrategyKind{StrategyPull, StrategyPush, StrategyRPCCSC},
		Xs:         []float64{1, 0.75, 0.5, 0.25, 0},
		Apply: func(cfg *Config, x float64) {
			cfg.DiurnalPeriod = cfg.SimTime / 4
			cfg.DiurnalMin = x
		},
		Metric: MetricTotalTx,
	}
}

// ExtraFigureSpecs returns the non-paper sweeps in presentation order.
func ExtraFigureSpecs() []SweepSpec {
	return []SweepSpec{
		PolicyHitSpec(), PolicyLatSpec(),
		RWRatioSpec(), DiurnalLoadSpec(),
	}
}
