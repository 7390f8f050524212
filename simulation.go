package rpcc

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// SimOptions configures a scriptable Simulation. The zero value is not
// usable; start from DefaultSimOptions.
type SimOptions struct {
	// Peers is the number of mobile hosts; host i owns data item i.
	Peers int
	// AreaMeters is the side of the square terrain.
	AreaMeters float64
	// RadioRange is the unit-disk communication range in metres.
	RadioRange float64
	// CacheCapacity is each host's cache size (C_Num).
	CacheCapacity int
	// Seed makes the run reproducible.
	Seed int64
	// MinSpeed/MaxSpeed/Pause parameterise random-waypoint mobility.
	MinSpeed, MaxSpeed float64
	Pause              time.Duration
	// EnableChurn turns on random disconnection/reconnection with the
	// given mean dwell times. Scripted Disconnect/Reconnect work either
	// way.
	EnableChurn      bool
	MeanUp, MeanDown time.Duration
	// Protocol is the RPCC parameterisation (Table 1 defaults if zero).
	Protocol core.Config
	// DeltaBound is the Δ used by the consistency auditor for LevelDelta
	// answers; defaults to Protocol.TTP.
	DeltaBound time.Duration
}

// DefaultSimOptions returns a compact, well-connected 20-peer setup
// suitable for interactive scenarios and examples (the field is dense
// enough that partitions are rare; use the Scenario API for the paper's
// sparser Table 1 geometry).
func DefaultSimOptions(seed int64) SimOptions {
	return SimOptions{
		Peers:         20,
		AreaMeters:    700,
		RadioRange:    250,
		CacheCapacity: 10,
		Seed:          seed,
		MinSpeed:      0.5,
		MaxSpeed:      3,
		Pause:         time.Minute,
		EnableChurn:   false,
		MeanUp:        5 * time.Minute,
		MeanDown:      30 * time.Second,
		Protocol:      core.DefaultConfig(),
	}
}

// Simulation is a scriptable RPCC deployment: schedule queries, updates
// and fault injections at chosen virtual times, then advance the clock
// with RunFor and inspect the outcome.
type Simulation struct {
	k       *sim.Kernel
	net     *netsim.Network
	reg     *data.Registry
	stores  []*cache.Store
	chassis *node.Chassis
	eng     *core.Engine
	proc    *churn.Process
	lat     *stats.Latency
	started bool
}

// NewSimulation builds the full stack described by opts.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	if opts.Peers <= 1 {
		return nil, fmt.Errorf("rpcc: need at least 2 peers, got %d", opts.Peers)
	}
	if opts.Protocol.TTN == 0 {
		opts.Protocol = core.DefaultConfig()
	}
	if opts.DeltaBound <= 0 {
		opts.DeltaBound = opts.Protocol.TTP
	}
	k := sim.NewKernel(sim.WithSeed(opts.Seed))
	terrain, err := geo.NewTerrain(opts.AreaMeters, opts.AreaMeters)
	if err != nil {
		return nil, err
	}
	field, err := mobility.NewField(mobility.Config{
		Terrain:    terrain,
		MinSpeed:   opts.MinSpeed,
		MaxSpeed:   opts.MaxSpeed,
		Pause:      opts.Pause,
		SubnetCell: opts.AreaMeters / 2,
	}, opts.Peers, func(i int) *rand.Rand { return k.Stream(fmt.Sprintf("mobility.%d", i)) })
	if err != nil {
		return nil, err
	}
	proc, err := churn.NewProcess(churn.Config{
		MeanUp:   opts.MeanUp,
		MeanDown: opts.MeanDown,
		Disabled: !opts.EnableChurn,
	}, opts.Peers, k)
	if err != nil {
		return nil, err
	}
	batteries := make([]*energy.Battery, opts.Peers)
	for i := range batteries {
		if batteries[i], err = energy.NewBattery(energy.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	netCfg := netsim.DefaultConfig()
	netCfg.CommRange = opts.RadioRange
	network, err := netsim.New(netCfg, k, field, proc, batteries, stats.NewTraffic())
	if err != nil {
		return nil, err
	}
	reg, err := data.NewRegistry(opts.Peers)
	if err != nil {
		return nil, err
	}
	stores, err := cache.NewStores(opts.Peers, opts.CacheCapacity, cache.Policy{})
	if err != nil {
		return nil, err
	}
	aud, err := consistency.NewAuditor(reg, opts.DeltaBound, 5*time.Second)
	if err != nil {
		return nil, err
	}
	lat := stats.NewLatency()
	chassis, err := node.NewChassis(node.DefaultConfig(), network, reg, stores, lat, aud)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(opts.Protocol, chassis, core.Telemetry{
		Switches: proc.Switches,
		Moves:    func(nd int) uint64 { return field.Node(nd).Moves() },
		CE:       func(nd int) float64 { return batteries[nd].CE(k.Now()) },
	})
	if err != nil {
		return nil, err
	}
	return &Simulation{
		k: k, net: network, reg: reg, stores: stores,
		chassis: chassis, eng: eng, proc: proc, lat: lat,
	}, nil
}

// ensureStarted lazily wires receivers and periodic protocol duties the
// first time the clock advances or an action is scheduled.
func (s *Simulation) ensureStarted() error {
	if s.started {
		return nil
	}
	if err := s.eng.Start(s.k); err != nil {
		return err
	}
	s.started = true
	return nil
}

// Warm places the current master copy of item into host's cache before
// (or during) the run — the placement substrate the paper assumes.
func (s *Simulation) Warm(host, item int) error {
	if err := s.checkHostItem(host, item); err != nil {
		return err
	}
	m, err := s.reg.Master(data.ItemID(item))
	if err != nil {
		return err
	}
	s.eng.Warm(s.k, host, m.Current())
	return nil
}

func (s *Simulation) checkHostItem(host, item int) error {
	if host < 0 || host >= s.net.Len() {
		return fmt.Errorf("rpcc: host %d out of range", host)
	}
	if item < 0 || item >= s.reg.Len() {
		return fmt.Errorf("rpcc: item %d out of range", item)
	}
	return nil
}

// At schedules fn to run at absolute virtual time t (which must not be in
// the past). Actions inside fn (Query, Update, Disconnect…) execute at
// that simulated instant.
func (s *Simulation) At(t time.Duration, fn func()) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	_, err := s.k.At(t, "script", func(*sim.Kernel) { fn() })
	return err
}

// Query issues a query from host for item at the given level, now.
func (s *Simulation) Query(host, item int, level Level) error {
	if err := s.checkHostItem(host, item); err != nil {
		return err
	}
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.eng.OnQuery(s.k, host, data.ItemID(item), level)
	return nil
}

// Update commits a new version of host's own data item, now.
func (s *Simulation) Update(host int) error {
	if err := s.checkHostItem(host, 0); err != nil {
		return err
	}
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.eng.OnUpdate(s.k, host)
	return nil
}

// Disconnect forces host off the network (radio silence) until Reconnect.
func (s *Simulation) Disconnect(host int) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	return s.proc.ForceState(s.k, host, churn.StateDisconnected)
}

// Reconnect brings a disconnected host back.
func (s *Simulation) Reconnect(host int) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	return s.proc.ForceState(s.k, host, churn.StateConnected)
}

// RunFor advances the simulation clock by d, executing everything due.
func (s *Simulation) RunFor(d time.Duration) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.k.RunUntil(s.k.Now() + d)
	return nil
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.k.Now() }

// Role describes host's protocol role for item: "none", "cache",
// "candidate" or "relay".
func (s *Simulation) Role(host, item int) string {
	return s.eng.Role(host, data.ItemID(item)).String()
}

// RelayCount returns the number of relay registrations across all source
// hosts.
func (s *Simulation) RelayCount() int { return s.eng.RelayCount() }

// Metrics is a snapshot of a Simulation's counters.
type Metrics struct {
	Issued, Answered, Failed uint64
	MeanLatency              time.Duration
	MaxLatency               time.Duration
	TotalTransmissions       uint64
	TotalBytes               uint64
	AuditViolations          uint64
	MeanStaleness            time.Duration
	RelayRegistrations       int
}

// Metrics returns the current snapshot.
func (s *Simulation) Metrics() Metrics {
	return Metrics{
		Issued:             s.chassis.Issued(),
		Answered:           s.chassis.Answered(),
		Failed:             s.chassis.Failed(),
		MeanLatency:        s.lat.Mean(),
		MaxLatency:         s.lat.Max(),
		TotalTransmissions: s.net.Traffic().TotalTx(),
		TotalBytes:         s.net.Traffic().TotalBytes(),
		AuditViolations:    s.chassis.AuditViolations(),
		MeanStaleness:      s.chassis.Auditor.MeanStaleness(),
		RelayRegistrations: s.eng.RelayCount(),
	}
}

// Version returns host's cached version of item and whether it caches it
// at all. For the item's owner it returns the master version.
func (s *Simulation) Version(host, item int) (uint64, bool) {
	if s.checkHostItem(host, item) != nil {
		return 0, false
	}
	if s.reg.Owner(data.ItemID(item)) == host {
		m, err := s.reg.Master(data.ItemID(item))
		if err != nil {
			return 0, false
		}
		return uint64(m.Current().Version), true
	}
	cp, ok := s.stores[host].Peek(data.ItemID(item))
	if !ok {
		return 0, false
	}
	return uint64(cp.Version), true
}
