package rpcc

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/sim"
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
	}
}

// config maps the options onto an RPCC scenario with Table 1's protocol
// parameters (Δ = TTP). Its SimTime bounds only a batch run; a script
// advances the clock itself with RunFor.
func (o SimOptions) config() experiment.Config {
	cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, o.Seed)
	cfg.NPeers = o.Peers
	cfg.AreaWidth, cfg.AreaHeight = o.AreaMeters, o.AreaMeters
	cfg.SubnetCell = o.AreaMeters / 2
	cfg.CommRange = o.RadioRange
	cfg.CacheNum = o.CacheCapacity
	cfg.MinSpeed, cfg.MaxSpeed, cfg.Pause = o.MinSpeed, o.MaxSpeed, o.Pause
	cfg.SwitchInterval, cfg.MeanDown = o.MeanUp, o.MeanDown
	cfg.ChurnDisabled = !o.EnableChurn
	return cfg
}

// Simulation is a scriptable RPCC deployment: schedule queries, updates
// and fault injections at chosen virtual times, then advance the clock
// with RunFor and inspect the outcome. It is the batch runs' simulated
// world, driven by a script instead of a workload.
type Simulation struct {
	w       *experiment.World
	started bool
}

// NewSimulation builds the full stack described by opts.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	w, err := experiment.Build(opts.config())
	if err != nil {
		return nil, err
	}
	return &Simulation{w: w}, nil
}

// ensureStarted lazily wires receivers and periodic protocol duties the
// first time the clock advances or an action is scheduled.
func (s *Simulation) ensureStarted() error {
	if s.started {
		return nil
	}
	if err := s.w.Start(); err != nil {
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
	return s.w.Warm(host, data.ItemID(item))
}

func (s *Simulation) checkHostItem(host, item int) error {
	if host < 0 || host >= s.w.Config.NPeers {
		return fmt.Errorf("rpcc: host %d out of range", host)
	}
	if item < 0 || item >= s.w.Config.NPeers {
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
	_, err := s.w.K.At(t, "script", func(*sim.Kernel) { fn() })
	return err
}

// Query issues a query from host for item at the given level, now.
func (s *Simulation) Query(host, item int, level Level) error {
	if err := s.checkHostItem(host, item); err != nil {
		return err
	}
	if !level.Valid() {
		return fmt.Errorf("rpcc: invalid level %v", level)
	}
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.w.Engine.OnQuery(s.w.K, host, data.ItemID(item), level)
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
	s.w.Engine.OnUpdate(s.w.K, host)
	return nil
}

// Disconnect forces host off the network (radio silence) until Reconnect.
func (s *Simulation) Disconnect(host int) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	return s.w.Churn.ForceState(s.w.K, host, churn.StateDisconnected)
}

// Reconnect brings a disconnected host back.
func (s *Simulation) Reconnect(host int) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	return s.w.Churn.ForceState(s.w.K, host, churn.StateConnected)
}

// RunFor advances the simulation clock by d, executing everything due.
func (s *Simulation) RunFor(d time.Duration) error {
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.w.RunUntil(s.w.K.Now() + d)
	return nil
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.w.K.Now() }

// Role describes host's protocol role for item: "none", "cache",
// "candidate" or "relay".
func (s *Simulation) Role(host, item int) string {
	return s.w.Engine.Role(host, data.ItemID(item)).String()
}

// RelayCount returns the number of relay registrations across all source
// hosts.
func (s *Simulation) RelayCount() int { return s.w.Engine.RelayCount() }

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
	ch, traffic := s.w.Chassis, s.w.Net.Traffic()
	return Metrics{
		Issued:             ch.Issued(),
		Answered:           ch.Answered(),
		Failed:             ch.Failed(),
		MeanLatency:        ch.Latency.Mean(),
		MaxLatency:         ch.Latency.Max(),
		TotalTransmissions: traffic.TotalTx(),
		TotalBytes:         traffic.TotalBytes(),
		AuditViolations:    ch.AuditViolations(),
		MeanStaleness:      ch.Auditor.MeanStaleness(),
		RelayRegistrations: s.w.Engine.RelayCount(),
	}
}

// Version returns host's cached version of item and whether it caches it
// at all. For the item's owner it returns the master version.
func (s *Simulation) Version(host, item int) (uint64, bool) {
	if s.checkHostItem(host, item) != nil {
		return 0, false
	}
	if s.w.Reg.Owner(data.ItemID(item)) == host {
		m, err := s.w.Reg.Master(data.ItemID(item))
		if err != nil {
			return 0, false
		}
		return uint64(m.Current().Version), true
	}
	cp, ok := s.w.Stores[host].Peek(data.ItemID(item))
	if !ok {
		return 0, false
	}
	return uint64(cp.Version), true
}
