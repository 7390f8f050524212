package experiment

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// scaleAutoShardFloor is the peer count below which auto-sharding stays
// serial: one region, one kernel — exactly the path every figure runs.
const scaleAutoShardFloor = 2000

// scaleGossipInterval paces the cross-region watermark gossip and delays
// its mail. Regions exchange nothing else, so it is also the sharded
// kernel's lookahead: one lockstep window per gossip round.
const scaleGossipInterval = time.Second

// ScaleConfig parameterises one large-scale run: the base scenario
// (NPeers is the TOTAL across all regions) plus the sharding controls.
type ScaleConfig struct {
	Config

	// Shards is the region count; 0 picks automatically (1 below 2000
	// peers, then one region per ~2500 peers, at most 16). Each region is
	// an independent protocol stack on its own sub-kernel — peers query
	// within their region, and regions exchange progress watermarks
	// through the sharded kernel's bounded-lookahead mail. How many
	// goroutines run the regions (EachShard) does not change the result.
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
	// PerShard holds each region's own Result (nil when Shards == 1 —
	// the merged Result IS the single region's).
	PerShard []Result
	// Barriers / MailDelivered count sharded-kernel synchronization
	// work (zero when Shards == 1).
	Barriers      uint64
	MailDelivered uint64
	// GossipViolations counts cross-region watermark regressions — a
	// receiver observing a sender's answered-query counter move
	// backwards, which a correct lockstep schedule makes impossible.
	GossipViolations uint64
	// Topology aggregates the per-region networks' topology-maintenance
	// counters.
	Topology netsim.TopologyStats
	// Spans is the merged causal trace in canonical (StartNs, Region,
	// Seq) order — nil unless ScaleConfig.Trace was set. The merge order
	// is a pure function of the spans, so same-seed runs produce
	// byte-identical JSONL regardless of region count or scheduling.
	Spans []ctrace.Span
	// KernelStats is the sharded kernel's per-shard introspection
	// snapshot (events, mail, barrier stalls).
	KernelStats sim.ShardedStats
}

// autoShards picks the region count for n peers.
func autoShards(n int) int {
	if n < scaleAutoShardFloor {
		return 1
	}
	s := n / 2500
	if s < 2 {
		s = 2
	}
	if s > 16 {
		s = 16
	}
	return s
}

// RunScale executes one scenario at scale: the peers split into S
// equal-density regions, each assembled as an independent stack on a
// sub-kernel of a ShardedKernel (lookahead = scaleGossipInterval, the
// delay of the only mail regions send each other), run in lockstep, and
// merged into one report. Regions gossip monotone answered-query
// watermarks through the barrier mail; any regression is reported as a
// GossipViolation. S = 1 is the degenerate case — one region on one
// sub-kernel, which the sharded-kernel tests prove event-identical to a
// plain serial kernel — so small runs behave exactly like Run.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScaleResult{}, err
	}
	s := cfg.Shards
	if s == 0 {
		s = autoShards(cfg.NPeers)
	}
	if s < 1 {
		return ScaleResult{}, fmt.Errorf("experiment: bad shard count %d", s)
	}
	if cfg.NPeers/s < 2 {
		return ScaleResult{}, fmt.Errorf("experiment: %d peers across %d shards leaves <2 per region", cfg.NPeers, s)
	}
	sk, err := sim.NewShardedKernel(s, scaleGossipInterval, cfg.SimTime, cfg.Seed)
	if err != nil {
		return ScaleResult{}, err
	}

	// Split peers evenly (remainder to the low regions) and scale each
	// region's area by its peer share so node density matches the base
	// scenario. A region's stack touches only its own sub-kernel, hub and
	// collector, so the regions assemble on the kernel's workers.
	stacks := make([]*assembled, s)
	errs := make([]error, s)
	base, rem := cfg.NPeers/s, cfg.NPeers%s
	sk.EachShard(func(i int) {
		sub := cfg.Config
		sub.NPeers = base
		if i < rem {
			sub.NPeers++
		}
		// Width stays; the height carries the region's peer share, so each
		// region is a horizontal strip of the base terrain at unchanged
		// node density.
		share := float64(sub.NPeers) / float64(cfg.NPeers)
		sub.AreaWidth = cfg.AreaWidth
		sub.AreaHeight = cfg.AreaHeight * share
		sub.Seed = cfg.Seed // sub-kernel seeds already differ per shard
		if err := sub.Validate(); err != nil {
			errs[i] = fmt.Errorf("experiment: shard %d config: %w", i, err)
			return
		}
		hub := telemetry.NewHub(telemetry.LevelMetrics)
		var tracer *ctrace.Collector
		if cfg.Trace {
			tracer = ctrace.NewCollector(i)
		}
		a, err := assembleScenario(sub, hub, sk.Shard(i), tracer)
		if err != nil {
			errs[i] = fmt.Errorf("experiment: shard %d assemble: %w", i, err)
			return
		}
		stacks[i] = a
	})
	if err := errors.Join(errs...); err != nil {
		return ScaleResult{}, err
	}

	// Watermark gossip: every region periodically mails its answered
	// counter to the next region; receivers assert per-sender
	// monotonicity (receiver region = node, sender region = item, one
	// epoch). Row j is touched only by shard j's handlers and the table
	// is sized up front, so concurrent windows need no locking.
	seen := make(consistency.Watermarks, s)
	var gossipViol atomic.Uint64
	for i := 0; s > 1 && i < s; i++ {
		next := (i + 1) % s
		if _, err := sk.Shard(i).Every(scaleGossipInterval, "scale.gossip", func(k *sim.Kernel) {
			w := data.Version(stacks[i].chassis.Answered())
			if err := sk.Send(i, next, scaleGossipInterval, "scale.watermark", func(*sim.Kernel) {
				if _, regressed := seen.Observe(next, data.ItemID(i), w, 0); regressed {
					gossipViol.Add(1)
				}
			}); err != nil {
				panic(fmt.Sprintf("experiment: watermark send %d->%d: %v", i, next, err))
			}
		}); err != nil {
			return ScaleResult{}, err
		}
	}

	sk.Run()

	out := ScaleResult{
		Shards:           s,
		PerShard:         make([]Result, s),
		Barriers:         sk.Barriers(),
		MailDelivered:    sk.Delivered(),
		GossipViolations: gossipViol.Load(),
		KernelStats:      sk.Stats(),
	}
	sets := make([][]ctrace.Span, s)
	sk.EachShard(func(i int) {
		out.PerShard[i] = stacks[i].finalize()
		if cfg.Trace {
			sets[i] = stacks[i].tracer.Export()
		}
	})
	for _, a := range stacks {
		out.Topology.Add(a.net.TopologyStats())
	}
	if cfg.Trace {
		out.Spans = ctrace.Merge(sets...)
	}
	out.Result = mergeResults(cfg.Config, out.PerShard)
	return out, nil
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
				m.Telemetry = r.Telemetry
			} else if err := m.Telemetry.Merge(r.Telemetry); err != nil {
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
