// Package churn models host disconnection and reconnection. The paper's
// Table 1 gives each peer a "switching interval" (I_Switch, default five
// minutes): peers alternate between connected and disconnected states with
// exponentially distributed dwell times, and each transition increments
// the N_s counter that feeds the peer switching rate (PSR, Eq 4.2.4).
package churn

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/sim"
)

// State is a host's connectivity state.
type State int

// Connectivity states. Following the style guide, the meaningful values
// start at 1 so the zero value is detectably invalid.
const (
	StateInvalid State = iota
	StateConnected
	StateDisconnected
)

// String renders the state for traces.
func (s State) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateDisconnected:
		return "disconnected"
	default:
		return "invalid"
	}
}

// Config parameterises the churn process.
type Config struct {
	// MeanUp is the mean connected dwell time. The paper's I_Switch.
	MeanUp time.Duration
	// MeanDown is the mean disconnected dwell time. Disconnections in a
	// MANET are typically much shorter than connected periods; the
	// experiment harness defaults this to a fraction of MeanUp.
	MeanDown time.Duration
	// Disabled turns churn off entirely: every node stays connected.
	Disabled bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Disabled {
		return nil
	}
	if c.MeanUp <= 0 {
		return fmt.Errorf("churn: MeanUp %v must be > 0", c.MeanUp)
	}
	if c.MeanDown <= 0 {
		return fmt.Errorf("churn: MeanDown %v must be > 0", c.MeanDown)
	}
	return nil
}

// Listener observes state transitions; the network layer uses it to tear
// down in-flight deliveries and the protocol layer to trigger reconnection
// repair (GET_NEW, §4.5).
type Listener func(node int, s State, at time.Duration)

// Process drives the on/off state of every node.
type Process struct {
	cfg      Config
	rng      *rand.Rand
	state    []State
	switches []uint64 // N_s per node
	// phase is the state the churn schedule *would* have the node in. It
	// oscillates on every scheduled flip regardless of freezes, so the
	// dwell-mean chosen for each exponential draw — and therefore the
	// shared RNG stream's draw sequence — is identical whether or not any
	// node is frozen. state tracks phase except while frozen/forced.
	phase     []State
	frozen    []bool // frozen nodes ignore scheduled flips (crash faults)
	listeners []Listener
	// flips holds each node's transition timer, re-armed after every flip.
	flips []flipTimer
}

// flipTimer is one node's scheduled churn transition.
type flipTimer struct {
	p    *Process
	node int
}

// Fire flips the node and schedules its next transition.
func (t *flipTimer) Fire(k *sim.Kernel) {
	t.p.flip(k, t.node)
	t.p.scheduleTransition(k, t.node)
}

// NewProcess creates the churn process for n nodes, all initially
// connected, and schedules their first transitions on k.
func NewProcess(cfg Config, n int, k *sim.Kernel) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("churn: need at least one node, got %d", n)
	}
	if k == nil {
		return nil, fmt.Errorf("churn: nil kernel")
	}
	p := &Process{
		cfg:      cfg,
		rng:      k.Stream("churn"),
		state:    make([]State, n),
		switches: make([]uint64, n),
		phase:    make([]State, n),
		frozen:   make([]bool, n),
	}
	for i := range p.state {
		p.state[i] = StateConnected
		p.phase[i] = StateConnected
	}
	if !cfg.Disabled {
		p.flips = make([]flipTimer, n)
		for i := range p.flips {
			p.flips[i] = flipTimer{p: p, node: i}
			p.scheduleTransition(k, i)
		}
	}
	return p, nil
}

// expDraw samples an exponential dwell with the given mean, floored at one
// millisecond so transitions never pile up at the same instant.
func (p *Process) expDraw(mean time.Duration) time.Duration {
	d := time.Duration(p.rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (p *Process) scheduleTransition(k *sim.Kernel, node int) {
	mean := p.cfg.MeanUp
	if p.phase[node] == StateDisconnected {
		mean = p.cfg.MeanDown
	}
	k.AfterTimer(p.expDraw(mean), "churn.flip", &p.flips[node])
}

func (p *Process) flip(k *sim.Kernel, node int) {
	if p.phase[node] == StateConnected {
		p.phase[node] = StateDisconnected
	} else {
		p.phase[node] = StateConnected
	}
	if p.frozen[node] {
		// A frozen node (crashed, under fault injection) keeps its forced
		// state; the phase keeps oscillating so the RNG draw pattern —
		// and therefore every other node's timeline — is unchanged by
		// the freeze.
		return
	}
	if p.state[node] == p.phase[node] {
		// Already there (a ForceState landed on the schedule's side).
		return
	}
	p.state[node] = p.phase[node]
	p.switches[node]++
	for _, l := range p.listeners {
		l(node, p.state[node], k.Now())
	}
}

// Subscribe registers a transition listener. Must be called during setup,
// before the kernel runs.
func (p *Process) Subscribe(l Listener) {
	if l != nil {
		p.listeners = append(p.listeners, l)
	}
}

// Connected reports whether node is currently connected.
func (p *Process) Connected(node int) bool {
	return node >= 0 && node < len(p.state) && p.state[node] == StateConnected
}

// Switches returns node's cumulative transition count (the paper's N_s).
func (p *Process) Switches(node int) uint64 {
	if node < 0 || node >= len(p.switches) {
		return 0
	}
	return p.switches[node]
}

// DownMask fills dst with the per-node disconnected flags for the radio
// layer, allocating when needed.
func (p *Process) DownMask(dst []bool) []bool {
	if cap(dst) < len(p.state) {
		dst = make([]bool, len(p.state))
	}
	dst = dst[:len(p.state)]
	for i, s := range p.state {
		dst[i] = s == StateDisconnected
	}
	return dst
}

// SetFrozen marks a node as frozen (or unfreezes it). While frozen, the
// node ignores its scheduled churn flips — only ForceState moves it. The
// fault plane uses this to model crashes: freeze + force disconnected,
// then unfreeze + force connected at restart.
func (p *Process) SetFrozen(node int, frozen bool) error {
	if node < 0 || node >= len(p.frozen) {
		return fmt.Errorf("churn: node %d out of range", node)
	}
	p.frozen[node] = frozen
	return nil
}

// ForceState sets a node's state directly, notifying listeners. Tests and
// fault-injection scenarios use it to create targeted disconnections. It
// applies even to frozen nodes — it is how the fault plane moves them.
func (p *Process) ForceState(k *sim.Kernel, node int, s State) error {
	if node < 0 || node >= len(p.state) {
		return fmt.Errorf("churn: node %d out of range", node)
	}
	if s != StateConnected && s != StateDisconnected {
		return fmt.Errorf("churn: invalid state %v", s)
	}
	if p.state[node] == s {
		return nil
	}
	p.state[node] = s
	p.switches[node]++
	for _, l := range p.listeners {
		l(node, s, k.Now())
	}
	return nil
}
