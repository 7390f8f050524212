package experiment

import (
	"errors"
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// scaleAutoShardFloor is the peer count below which auto-sharding stays
// serial: one region, one kernel — exactly the path every figure runs.
const scaleAutoShardFloor = 2000

// ScaleConfig parameterises one large-scale run: the base scenario
// (NPeers is the TOTAL across all regions) plus the sharding controls.
type ScaleConfig struct {
	Config

	// Shards is the region count; 0 picks automatically (1 below 2000
	// peers, then one region per ~2500 peers, at most 16). Each region is
	// an independent protocol stack on its own kernel: peers query within
	// their region and regions exchange nothing. How many goroutines run
	// the regions (EachRegion) does not change the result.
	Shards int
	// Trace enables causal tracing: each region gets its own collector
	// (region id = shard index, so span ids never collide) and the merged
	// span set lands in ScaleResult.Spans in canonical order.
	Trace bool
}

// ScaleResult is a merged large-scale run report.
type ScaleResult struct {
	Result

	// Shards is the region count actually used.
	Shards int
	// PerShard holds each region's own Result (with one region, the
	// merged Result is that region's).
	PerShard []Result
	// GossipViolations is always 0: regions send each other nothing to
	// violate. It survives only because the frozen bench/ module gates on
	// it (bench/sim.go:212).
	GossipViolations uint64
	// Topology aggregates the per-region networks' topology-maintenance
	// counters.
	Topology netsim.TopologyStats
	// Spans is the merged causal trace in canonical (StartNs, Region,
	// Seq) order — nil unless ScaleConfig.Trace was set. The merge order
	// is a pure function of the spans, so same-seed runs produce
	// byte-identical JSONL regardless of region count or scheduling.
	Spans []ctrace.Span
	// KernelStats is the per-region kernel snapshot (events fired, wall
	// time busy).
	KernelStats sim.ShardedStats
}

// autoShards picks the region count for n peers.
func autoShards(n int) int {
	if n < scaleAutoShardFloor {
		return 1
	}
	return min(max(n/2500, 2), 16)
}

// regionDone, when set, is called on region i's worker with its finished
// World before the region's call returns — the seam the release test
// measures the live heap through.
var regionDone func(i int, w *World)

// RunScale executes one scenario at scale: the peers split into S
// equal-density regions, each an independent run on its own seeded
// kernel (region i on root+i·goldenGamma), merged into one report. A
// region's whole life — build, run to the horizon, finish into what the
// merge reads — is one call of run on one of EachRegion's workers, so
// nothing of a region outlives its call and peak memory is about one
// region per worker, whatever S is. A region's Result is a pure function
// of (its sub-config, the root seed, its index) — exactly what Run
// returns for that sub-config on that seed — so S = 1 behaves exactly
// like Run.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScaleResult{}, err
	}
	if !cfg.Faults.IsZero() {
		return ScaleResult{}, fmt.Errorf("experiment: scale runs take no fault campaign")
	}
	s := cfg.Shards
	if s == 0 {
		s = autoShards(cfg.NPeers)
	}
	if cfg.NPeers/s < 2 { // as does any negative count
		return ScaleResult{}, fmt.Errorf("experiment: %d peers across %d shards leaves <2 per region", cfg.NPeers, s)
	}
	sk, err := sim.NewShardedKernel(s, 0, cfg.SimTime, cfg.Seed)
	if err != nil {
		return ScaleResult{}, err
	}

	out := ScaleResult{Shards: s, PerShard: make([]Result, s)}
	topology := make([]netsim.TopologyStats, s)
	sets := make([][]ctrace.Span, s)
	errs := make([]error, s)
	sk.EachRegion(func(i int, k *sim.Kernel) time.Duration {
		var tracer *ctrace.Collector
		if cfg.Trace {
			tracer = ctrace.NewCollector(i)
		}
		w, res, err := run(regionConfig(cfg.Config, s, i), WithKernel(k), WithTracer(tracer))
		if err != nil {
			errs[i] = fmt.Errorf("experiment: shard %d assemble: %w", i, err)
			return 0
		}
		out.PerShard[i], topology[i], sets[i] = res, w.Net.TopologyStats(), w.Tracer.Export()
		if regionDone != nil {
			regionDone(i, w)
		}
		return w.busy
	})
	if err := errors.Join(errs...); err != nil {
		return ScaleResult{}, err
	}
	out.KernelStats = sk.Stats()
	for _, t := range topology {
		out.Topology.Add(t)
	}
	if cfg.Trace {
		out.Spans = ctrace.Merge(sets...)
	}
	out.Result = mergeResults(cfg.Config, out.PerShard)
	return out, nil
}

// regionConfig is region i's scenario when total is split into s regions:
// peers divided evenly (remainder to the low regions), and the region a
// horizontal strip of the base terrain — full width, the height carrying
// its peer share — so node density matches the base scenario. The seed
// stays the root's; region kernels are seeded apart by the ShardedKernel.
func regionConfig(total Config, s, i int) Config {
	sub := total
	sub.NPeers = total.NPeers / s
	if i < total.NPeers%s {
		sub.NPeers++
	}
	share := float64(sub.NPeers) / float64(total.NPeers)
	sub.AreaHeight = total.AreaHeight * share
	return sub
}

// mergeResults folds per-region results into one report for the whole
// population. Counters sum; means weight by the contributing population
// (answered queries for latency/staleness, peers for hit ratio);
// quantiles take the per-region maximum, a conservative upper bound —
// exact cross-region quantiles would need the raw samples, which the
// regions do not retain.
func mergeResults(total Config, rs []Result) Result {
	if len(rs) == 1 {
		// One region IS the population; copying keeps the weighted means
		// bit-exact (a multiply/divide round trip is not).
		m := rs[0]
		m.Strategy = total.Strategy
		m.Config = total
		return m
	}
	m := Result{Strategy: total.Strategy, Config: total, MinBatteryCE: 1}
	var latWeight, staleWeight uint64
	var hitWeight float64
	var fairWeight float64
	for _, r := range rs {
		m.TotalTx += r.TotalTx
		m.TotalBytes += r.TotalBytes
		m.Issued += r.Issued
		m.Answered += r.Answered
		m.Failed += r.Failed
		m.Violations += r.Violations
		m.TornAnswers += r.TornAnswers
		m.FutureAnswers += r.FutureAnswers
		m.RelayCount += r.RelayCount
		m.RoleCache += r.RoleCache
		m.RoleCand += r.RoleCand
		m.RoleRelay += r.RoleRelay
		m.PollDirect += r.PollDirect
		m.PollRing += r.PollRing
		m.PollFallback += r.PollFallback
		m.RelayForgets += r.RelayForgets
		m.EnergyDrained += r.EnergyDrained

		m.MeanLatency += time.Duration(float64(r.MeanLatency) * float64(r.Answered))
		m.MeanStaleness += time.Duration(float64(r.MeanStaleness) * float64(r.Answered))
		latWeight += r.Answered
		staleWeight += r.Answered
		if r.P50Latency > m.P50Latency {
			m.P50Latency = r.P50Latency
		}
		if r.P99Latency > m.P99Latency {
			m.P99Latency = r.P99Latency
		}
		if r.MaxLatency > m.MaxLatency {
			m.MaxLatency = r.MaxLatency
		}
		if r.MaxStaleness > m.MaxStaleness {
			m.MaxStaleness = r.MaxStaleness
		}
		if r.MinBatteryCE < m.MinBatteryCE {
			m.MinBatteryCE = r.MinBatteryCE
		}

		peers := float64(r.Config.NPeers)
		m.MeanHitRatio += r.MeanHitRatio * peers
		hitWeight += peers
		m.EnergyFairness += r.EnergyFairness * peers
		fairWeight += peers

		for w, v := range r.TrafficTimeline {
			for len(m.TrafficTimeline) <= w {
				m.TrafficTimeline = append(m.TrafficTimeline, 0)
			}
			m.TrafficTimeline[w] += v
		}
		if r.Telemetry != nil {
			if m.Telemetry == nil {
				m.Telemetry = &telemetry.Snapshot{}
			}
			if err := m.Telemetry.Merge(r.Telemetry); err != nil {
				// Snapshots from identically configured regions always
				// merge; a failure means a schema bug, not run data.
				panic(fmt.Sprintf("experiment: telemetry merge: %v", err))
			}
		}
	}
	if latWeight > 0 {
		m.MeanLatency = time.Duration(float64(m.MeanLatency) / float64(latWeight))
	}
	if staleWeight > 0 {
		m.MeanStaleness = time.Duration(float64(m.MeanStaleness) / float64(staleWeight))
	}
	if hitWeight > 0 {
		m.MeanHitRatio /= hitWeight
	}
	if fairWeight > 0 {
		m.EnergyFairness /= fairWeight
	}
	if hours := total.SimTime.Hours(); hours > 0 {
		m.TxPerHour = float64(m.TotalTx) / hours
	}
	return m
}
