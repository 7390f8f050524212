package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// Fault-event kinds: the rpcc_fault_events_total labels and the names of
// the causal trace's fault roots.
const (
	faultPartitionSplit = "partition-split"
	faultPartitionHeal  = "partition-heal"
	faultCrash          = "crash"
	faultRestart        = "restart"
	faultAssassination  = "assassination"
)

// Env is the running simulation the plane injects into. Engine may be
// nil for non-RPCC strategies; crash then wipes only the cache store,
// and assassinations (which need the relay table) are rejected. Hub
// counts the injected faults and Tracer records them; both may be nil.
type Env struct {
	Net    *netsim.Network
	Churn  *churn.Process
	Stores []*cache.Store
	Engine *core.Engine
	Hub    *telemetry.Hub
	Tracer *ctrace.Collector
}

// Plane schedules and enforces one fault campaign. Build with NewPlane,
// wire with Install before the kernel runs.
type Plane struct {
	cfg Config
	env Env
	// island holds each node's island id under the partition in force
	// (Partition.IslandIDs); active is false between windows. The netsim
	// link filter reads it on every in-flight frame, so membership checks
	// must be O(1).
	island  []int32
	active  bool
	crashed []bool
	onHeal  func(k *sim.Kernel, p Partition)
	// events counts the injected faults by kind on Env.Hub (Install).
	events map[string]*telemetry.Counter
}

// NewPlane validates the campaign against the environment.
func NewPlane(cfg Config, env Env) (*Plane, error) {
	if env.Net == nil || env.Churn == nil {
		return nil, fmt.Errorf("faults: plane needs a network and a churn process")
	}
	n := env.Net.Len()
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	if len(cfg.Assassinations) > 0 && env.Engine == nil {
		return nil, fmt.Errorf("faults: relay assassination requires the RPCC engine")
	}
	if len(env.Stores) != 0 && len(env.Stores) != n {
		return nil, fmt.Errorf("faults: %d stores for %d nodes", len(env.Stores), n)
	}
	return &Plane{cfg: cfg, env: env, crashed: make([]bool, n)}, nil
}

// OnHeal sets the callback fired at every partition heal (the invariant
// auditor hangs its convergence check here). Call before Install.
func (p *Plane) OnHeal(f func(k *sim.Kernel, part Partition)) { p.onHeal = f }

// Install wires the loss model, the delivery perturber and the link cut
// into the network and schedules every partition, crash and assassination
// on the kernel. A zero-value campaign installs nothing at all.
func (p *Plane) Install(k *sim.Kernel) error {
	p.events = make(map[string]*telemetry.Counter, 5)
	for _, kind := range []string{faultPartitionSplit, faultPartitionHeal, faultCrash, faultRestart, faultAssassination} {
		p.events[kind] = p.env.Hub.Counter("rpcc_fault_events_total", "Injected fault-plane events.",
			telemetry.Label{Key: "kind", Value: kind})
	}
	if p.cfg.Loss != (GilbertParams{}) {
		ge, err := NewGilbertElliott(p.cfg.Loss, k.Stream("faults.gilbert"))
		if err != nil {
			return err
		}
		p.env.Net.SetLossModel(ge)
	}
	if p.cfg.DupProb > 0 || p.cfg.Jitter > 0 {
		p.env.Net.SetPerturber(dupJitter(p.cfg.DupProb, p.cfg.Jitter.D(), k.Stream("netsim.faults")))
	}
	if len(p.cfg.Partitions) > 0 {
		p.env.Net.SetLinkFilter(p.linkCut)
		for _, part := range p.cfg.Partitions {
			part := part
			if _, err := k.At(part.Start.D(), "faults.partition.split", func(kk *sim.Kernel) {
				p.split(kk, part)
			}); err != nil {
				return err
			}
			if _, err := k.At(part.End.D(), "faults.partition.heal", func(kk *sim.Kernel) {
				p.heal(kk, part)
			}); err != nil {
				return err
			}
		}
	}
	for _, c := range p.cfg.Crashes {
		c := c
		if _, err := k.At(c.At.D(), "faults.crash", func(kk *sim.Kernel) {
			p.crash(kk, c.Node, c.RestartAfter.D())
		}); err != nil {
			return err
		}
	}
	for _, a := range p.cfg.Assassinations {
		a := a
		if _, err := k.At(a.At.D(), "faults.assassinate", func(kk *sim.Kernel) {
			p.assassinate(kk, a)
		}); err != nil {
			return err
		}
	}
	return nil
}

// dupJitter is the campaign's duplication and jitter as a netsim
// perturber drawing from rng alone. It touches unicast final hops only;
// floods and local deliveries pass. Each touched delivery draws in a fixed
// order: one duplication draw (when DupProb > 0), then one jitter draw per
// copy (when jitter > 0).
func dupJitter(dupProb float64, jitter time.Duration, rng *rand.Rand) netsim.Perturber {
	draw := func() time.Duration {
		if jitter <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(jitter)))
	}
	return func(_ int, _ protocol.Message, meta netsim.Meta) netsim.Perturbation {
		if meta.Flood || meta.Hops == 0 {
			return netsim.Perturbation{}
		}
		dup := dupProb > 0 && rng.Float64() < dupProb
		pt := netsim.Perturbation{Dup: dup, Delay: draw()}
		if dup {
			pt.DupDelay = draw()
		}
		return pt
	}
}

// linkCut is the netsim.LinkFilter: a frame in flight between islands is
// severed. It runs on every hop while a partition is active, so it is a
// pair of array reads.
func (p *Plane) linkCut(from, to int) bool {
	return p.active && p.island[from] != p.island[to]
}

// report counts one injected fault and, on a traced run, records it: an
// instantaneous fault root named after the kind, on the node when there
// is exactly one, otherwise on node -1 with one child per node in the
// order given. item is -1 unless the fault targets one item's relay tier.
func (p *Plane) report(k *sim.Kernel, kind string, nodes []int, item int) {
	p.events[kind].Inc()
	if p.env.Tracer == nil {
		return
	}
	now := k.Now().Nanoseconds()
	if len(nodes) == 1 {
		p.env.Tracer.Event(now, nodes[0], ctrace.PhaseFault, kind, ctrace.Annot{Item: item})
		return
	}
	root := p.env.Tracer.Event(now, -1, ctrace.PhaseFault, kind, ctrace.Annot{Item: item})
	for _, nd := range nodes {
		p.env.Tracer.Emit(root, nd, ctrace.PhaseFault, kind, now, now)
	}
}

// partitioned lists every node the partition names, in ascending order.
func partitioned(part Partition) []int {
	var nodes []int
	for _, group := range part.Islands {
		nodes = append(nodes, group...)
	}
	sort.Ints(nodes)
	return nodes
}

func (p *Plane) split(k *sim.Kernel, part Partition) {
	p.island = part.IslandIDs(p.env.Net.Len())
	p.active = true
	p.report(k, faultPartitionSplit, partitioned(part), -1)
}

func (p *Plane) heal(k *sim.Kernel, part Partition) {
	p.active = false
	p.report(k, faultPartitionHeal, partitioned(part), -1)
	if p.onHeal != nil {
		p.onHeal(k, part)
	}
}

// crash takes the node down (frozen against churn so nothing flips it
// back), wipes its volatile state, and optionally schedules the restart.
func (p *Plane) crash(k *sim.Kernel, node int, restartAfter time.Duration) {
	if p.crashed[node] {
		return // already down: a second crash changes nothing
	}
	p.crashed[node] = true
	// Disconnect first so listeners (netsim teardown) observe the node
	// going dark, then wipe: the order a real power loss has.
	_ = p.env.Churn.SetFrozen(node, true)
	_ = p.env.Churn.ForceState(k, node, churn.StateDisconnected)
	if p.env.Engine != nil {
		if err := p.env.Engine.Crash(k, node); err != nil {
			panic(fmt.Sprintf("faults: crash wipe failed: %v", err))
		}
	} else if len(p.env.Stores) > 0 {
		p.env.Stores[node].Clear()
	}
	p.report(k, faultCrash, []int{node}, -1)
	if restartAfter > 0 {
		k.After(restartAfter, "faults.restart", func(kk *sim.Kernel) {
			p.restart(kk, node)
		})
	}
}

func (p *Plane) restart(k *sim.Kernel, node int) {
	if !p.crashed[node] {
		return
	}
	p.crashed[node] = false
	_ = p.env.Churn.SetFrozen(node, false)
	_ = p.env.Churn.ForceState(k, node, churn.StateConnected)
	p.report(k, faultRestart, []int{node}, -1)
}

// assassinate kills the item's currently registered relay peers — the
// lowest Count node ids, or all of them when Count is zero.
func (p *Plane) assassinate(k *sim.Kernel, a Assassination) {
	targets := p.env.Engine.RelaysFor(a.Item)
	if a.Count > 0 && len(targets) > a.Count {
		targets = targets[:a.Count]
	}
	p.report(k, faultAssassination, targets, int(a.Item))
	for _, nd := range targets {
		p.crash(k, nd, a.RestartAfter.D())
	}
}
