// Package experiment wires the full simulation stack — kernel, terrain,
// mobility, churn, energy, network, caches, workload, auditor and a
// consistency strategy — into the scenarios of the paper's §5, and runs
// the parameter sweeps behind every figure (Fig 7a–c, 8a–c, 9a–b).
package experiment

import (
	"fmt"
	"slices"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/workload"
)

// StrategyKind names a strategy+consistency-level combination as the
// figures label them.
type StrategyKind string

// The strategy kinds of §5.
const (
	StrategyPull   StrategyKind = "pull"
	StrategyPush   StrategyKind = "push"
	StrategyRPCCSC StrategyKind = "rpcc-sc"
	StrategyRPCCDC StrategyKind = "rpcc-dc"
	StrategyRPCCWC StrategyKind = "rpcc-wc"
	StrategyRPCCHY StrategyKind = "rpcc-hy"
)

// AllPaperStrategies returns the six combinations Fig 7/8 plot.
func AllPaperStrategies() []StrategyKind {
	return []StrategyKind{
		StrategyPull, StrategyPush,
		StrategyRPCCSC, StrategyRPCCDC, StrategyRPCCWC, StrategyRPCCHY,
	}
}

// Valid reports whether k names a known strategy: one of
// AllPaperStrategies.
func (k StrategyKind) Valid() bool {
	return slices.Contains(AllPaperStrategies(), k)
}

// Strategy is what every consistency engine (RPCC and baselines)
// implements; the harness drives it from the workload generator.
type Strategy interface {
	Name() string
	Start(k *sim.Kernel) error
	OnQuery(k *sim.Kernel, host int, item data.ItemID, level consistency.Level)
	OnUpdate(k *sim.Kernel, host int)
	Chassis() *node.Chassis
}

// RelayCounter is implemented by strategies with a relay tier (RPCC); the
// harness samples it for the Fig 9 relay-population metric.
type RelayCounter interface {
	RelayCount() int
}

// Config is one scenario: Table 1 plus the handful of knobs Table 1 leaves
// implicit (mobility speeds, churn split, warm placement).
type Config struct {
	// Table 1 rows.
	NPeers          int           // N_Peers: 50
	AreaWidth       float64       // T_Area: 1500 m
	AreaHeight      float64       // T_Area: 1500 m
	CacheNum        int           // C_Num: 10
	CommRange       float64       // C_Range: 250 m
	SimTime         time.Duration // T_Sim: 5 h
	UpdateInterval  time.Duration // I_Update: 2 min
	QueryInterval   time.Duration // I_Query: 20 s
	BroadcastTTL    int           // TTL_BR: 8 (simple push/pull)
	InvalidationTTL int           // TTL of RPCC INVALIDATION: 3
	TTN             time.Duration // TTN_OP: 2 min
	TTR             time.Duration // TTR_RP: 1.5 min
	TTP             time.Duration // TTP_CP: 4 min
	SwitchInterval  time.Duration // I_Switch: 5 min
	MuCAR           float64       // 0.15
	MuCS            float64       // 0.6
	MuCE            float64       // 0.6
	Omega           float64       // ω: 0.2

	// Implicit knobs.
	Strategy      StrategyKind
	Seed          int64
	Popularity    workload.Popularity
	MinSpeed      float64       // m/s
	MaxSpeed      float64       // m/s
	Pause         time.Duration // random-waypoint dwell
	SubnetCell    float64       // metres; N_m crossing grid
	MeanDown      time.Duration // disconnected dwell (fraction of I_Switch)
	ChurnDisabled bool
	// WarmCaches pre-populates every node's cache (the paper's assumed
	// placement substrate) instead of starting cold.
	WarmCaches bool
	// DisableEagerRefresh turns off the eager relay-refresh extension so
	// a stale relay waits for the next INVALIDATION exactly as Fig 6(c)
	// prescribes (the A4 ablation).
	DisableEagerRefresh bool
	// UseDSRRouting replaces the idealised oracle routing layer with
	// DSR-style on-demand source routing, charging RREQ/RREP/RERR
	// control traffic to the ledger (the A5 ablation; the paper's
	// GloMoSim testbed ran over DSR).
	UseDSRRouting bool
	// LossRate is the per-reception link loss probability (0 = clean
	// channel, the default; the A7 robustness sweep uses 0–0.3).
	LossRate float64
	// SerializeTx gives each node a single radio with MAC-style queueing
	// instead of the idealised parallel radio (the A10 ablation).
	SerializeTx bool
	// RouteTableCap bounds the live per-destination route tables kept by
	// each topology snapshot (0 = unlimited). Scale runs set a cap so
	// persistent route state stays linear in the cap rather than
	// quadratic in peers.
	RouteTableCap int
	// LazyChurnRefresh folds churn flips into the topology only at
	// refresh epochs instead of invalidating the snapshot per flip.
	// Forwarding still checks per-hop liveness, so downed nodes never
	// relay; only route choice sees churn at epoch granularity. Scale
	// runs enable it — at 100k peers per-flip resampling costs more than
	// the rest of the simulation.
	LazyChurnRefresh bool
	// CachePolicy selects the replacement policy for every node's store
	// ("" or "lru" = the default LRU; "lfu", "ttl", "utility"). The TTL
	// policy's freshness horizon is the scenario's TTP.
	CachePolicy cache.PolicyKind
	// Hotspots are flash-crowd popularity spikes layered over the
	// workload's base popularity model (empty = none; see
	// workload.Hotspot).
	Hotspots []workload.Hotspot
	// DiurnalPeriod/DiurnalMin modulate query demand sinusoidally (the
	// diurnal-load sweep); zero period disables.
	DiurnalPeriod time.Duration
	DiurnalMin    float64
	// Faults is the fault campaign injected into the run, with the
	// consistency invariants audited throughout (zero: a plain run; see
	// Result.Faults). Only RPCC strategies take one.
	Faults faults.Config
}

// DefaultConfig returns the Table 1 scenario for one strategy.
func DefaultConfig(strategy StrategyKind, seed int64) Config {
	return Config{
		NPeers:          50,
		AreaWidth:       1500,
		AreaHeight:      1500,
		CacheNum:        10,
		CommRange:       250,
		SimTime:         5 * time.Hour,
		UpdateInterval:  2 * time.Minute,
		QueryInterval:   20 * time.Second,
		BroadcastTTL:    8,
		InvalidationTTL: 3,
		TTN:             2 * time.Minute,
		TTR:             90 * time.Second,
		TTP:             4 * time.Minute,
		SwitchInterval:  5 * time.Minute,
		MuCAR:           0.15,
		MuCS:            0.6,
		MuCE:            0.6,
		Omega:           0.2,

		Strategy:   strategy,
		Seed:       seed,
		Popularity: workload.PopularityCached,
		MinSpeed:   0.5,
		MaxSpeed:   5,
		Pause:      time.Minute,
		SubnetCell: 1000,
		MeanDown:   30 * time.Second,
		WarmCaches: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Strategy.Valid() {
		return fmt.Errorf("experiment: unknown strategy %q", c.Strategy)
	}
	if c.NPeers <= 1 {
		return fmt.Errorf("experiment: need at least 2 peers, got %d", c.NPeers)
	}
	if c.AreaWidth <= 0 || c.AreaHeight <= 0 {
		return fmt.Errorf("experiment: bad area %gx%g", c.AreaWidth, c.AreaHeight)
	}
	if c.CacheNum <= 0 {
		return fmt.Errorf("experiment: non-positive cache number %d", c.CacheNum)
	}
	if c.CommRange <= 0 {
		return fmt.Errorf("experiment: non-positive range %g", c.CommRange)
	}
	if c.SimTime <= 0 {
		return fmt.Errorf("experiment: non-positive sim time %v", c.SimTime)
	}
	if c.UpdateInterval <= 0 || c.QueryInterval <= 0 {
		return fmt.Errorf("experiment: non-positive workload intervals")
	}
	if c.BroadcastTTL <= 0 || c.InvalidationTTL <= 0 {
		return fmt.Errorf("experiment: non-positive TTLs")
	}
	if c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("experiment: bad speeds [%g, %g]", c.MinSpeed, c.MaxSpeed)
	}
	if !c.ChurnDisabled && (c.SwitchInterval <= 0 || c.MeanDown <= 0) {
		return fmt.Errorf("experiment: bad churn intervals")
	}
	if !c.CachePolicy.Valid() {
		return fmt.Errorf("experiment: unknown cache policy %q", c.CachePolicy)
	}
	if c.Faults.IsZero() {
		return nil
	}
	// The crash wipe, relay assassination and heal-convergence checks all
	// reach into the RPCC engine's relay table.
	if c.Strategy == StrategyPull || c.Strategy == StrategyPush {
		return fmt.Errorf("experiment: fault campaigns require an RPCC strategy, got %q", c.Strategy)
	}
	return c.Faults.Validate(c.NPeers)
}
