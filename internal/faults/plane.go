package faults

import (
	"fmt"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
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
	// island holds each node's current island id; all-zero (or inactive)
	// means no partition is in force. The netsim link filter reads it on
	// every in-flight frame, so membership checks must be O(1).
	island  []int32
	active  bool
	crashed []bool
	onHeal  []func(k *sim.Kernel, p Partition)
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
	return &Plane{
		cfg:     cfg,
		env:     env,
		island:  make([]int32, n),
		crashed: make([]bool, n),
	}, nil
}

// OnHeal registers a callback fired at every partition heal (the
// invariant auditor hangs its convergence check here). Call before
// Install.
func (p *Plane) OnHeal(f func(k *sim.Kernel, part Partition)) {
	if f != nil {
		p.onHeal = append(p.onHeal, f)
	}
}

// Install wires the loss model and delivery-fault knobs into the network
// and schedules every partition, crash and assassination on the kernel.
// A zero-value campaign installs nothing at all.
func (p *Plane) Install(k *sim.Kernel) error {
	if p.cfg.Loss != nil {
		ge, err := NewGilbertElliott(*p.cfg.Loss, k.Stream("faults.gilbert"))
		if err != nil {
			return err
		}
		p.env.Net.SetLossModel(ge)
	}
	if p.cfg.DupProb > 0 || p.cfg.ReorderMax > 0 {
		if err := p.env.Net.SetDeliveryFaults(p.cfg.DupProb, p.cfg.ReorderMax); err != nil {
			return err
		}
	}
	if len(p.cfg.Partitions) > 0 {
		p.env.Net.SetLinkFilter(p.linkCut)
		for _, part := range p.cfg.Partitions {
			part := part
			if _, err := k.At(part.Start, "faults.partition.split", func(kk *sim.Kernel) {
				p.split(kk, part)
			}); err != nil {
				return err
			}
			if _, err := k.At(part.End, "faults.partition.heal", func(kk *sim.Kernel) {
				p.heal(kk, part)
			}); err != nil {
				return err
			}
		}
	}
	for _, c := range p.cfg.Crashes {
		c := c
		if _, err := k.At(c.At, "faults.crash", func(kk *sim.Kernel) {
			p.crash(kk, c.Node, c.RestartAfter)
		}); err != nil {
			return err
		}
	}
	for _, a := range p.cfg.Assassinations {
		a := a
		if _, err := k.At(a.At, "faults.assassinate", func(kk *sim.Kernel) {
			p.assassinate(kk, a)
		}); err != nil {
			return err
		}
	}
	return nil
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
	p.env.Hub.FaultEvent(kind)
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
	for i := range p.island {
		p.island[i] = 0
	}
	for gi, group := range part.Islands {
		for _, nd := range group {
			// Island ids start at 1: id 0 is the mainland (every node not
			// named in any group), so a single listed island really is cut
			// off from the rest.
			p.island[nd] = int32(gi + 1)
		}
	}
	p.active = true
	p.report(k, telemetry.FaultPartitionSplit, partitioned(part), -1)
}

func (p *Plane) heal(k *sim.Kernel, part Partition) {
	for i := range p.island {
		p.island[i] = 0
	}
	p.active = false
	p.report(k, telemetry.FaultPartitionHeal, partitioned(part), -1)
	for _, f := range p.onHeal {
		f(k, part)
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
	p.report(k, telemetry.FaultCrash, []int{node}, -1)
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
	p.report(k, telemetry.FaultRestart, []int{node}, -1)
}

// assassinate kills the item's currently registered relay peers — the
// lowest Count node ids, or all of them when Count is zero.
func (p *Plane) assassinate(k *sim.Kernel, a Assassination) {
	targets := p.env.Engine.RelaysFor(a.Item)
	if a.Count > 0 && len(targets) > a.Count {
		targets = targets[:a.Count]
	}
	p.report(k, telemetry.FaultAssassination, targets, int(a.Item))
	for _, nd := range targets {
		p.crash(k, nd, a.RestartAfter)
	}
}
