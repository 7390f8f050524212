// Package faults is the deterministic fault-injection plane: it scripts
// failure campaigns — network partitions, bursty Gilbert–Elliott loss,
// node crash/restart with state loss, targeted relay assassination, and
// message duplication/jitter — against a running simulation, and audits
// the consistency invariants the protocol claims to preserve through them
// (§4.5's reconnect repair, §4.3's re-election).
//
// Config is the one campaign schema. The simulator reads it from
// experiment.Config.Faults; the live UDP daemons (internal/wire) compile
// the same value, loaded from the same JSON, into their transport shim.
// Each field documents what either backend does with it.
//
// Everything is seed-reproducible: fault schedules are fixed timestamps,
// the loss model and the delivery jitter draw from their own named kernel
// streams, and a run whose campaign is zero installs nothing (no extra
// RNG draws, no extra events).
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// Duration marshals as a human-readable Go duration string ("250ms") so
// campaign files stay hand-editable; plain nanosecond numbers are also
// accepted on decode.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the duration in Go syntax ("1m30s").
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON accepts "1.5s" strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if json.Unmarshal(b, (*int64)(d)) == nil {
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("faults: duration must be a string or nanoseconds: %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("faults: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Partition splits the network into islands for [Start, End): links whose
// endpoints sit on different islands drop every frame (cause "partition"),
// while traffic within an island flows normally. Every node no group lists
// is on the mainland, so a single listed group models "this set is cut off
// from everyone else". At End the partition heals and, in the simulator,
// the repair clock starts.
type Partition struct {
	Start   Duration `json:"start"`
	End     Duration `json:"end"`
	Islands [][]int  `json:"islands"`
}

// IslandIDs compiles the partition for an n-node network: ids[v] is 0 (the
// mainland) for every node no group lists and i+1 for the nodes of
// Islands[i]. A link is cut while the window is open iff its endpoints'
// ids differ. The simulator's plane and the wire's chaos shim both cut by
// it.
func (p Partition) IslandIDs(n int) []int32 {
	ids := make([]int32, n)
	for gi, group := range p.Islands {
		for _, nd := range group {
			ids[nd] = int32(gi + 1)
		}
	}
	return ids
}

// GilbertParams parameterise the two-state Gilbert–Elliott loss model:
// a Markov chain alternating between a Good and a Bad state, with a
// per-reception transition draw and a state-dependent loss probability.
// Mean burst length is 1/PBadToGood receptions; stationary loss is
// (πG·LossGood + πB·LossBad) with πB = PGoodToBad/(PGoodToBad+PBadToGood).
// The zero value never loses anything and means "no loss model".
type GilbertParams struct {
	PGoodToBad float64 // per-reception transition probability Good → Bad
	PBadToGood float64 // per-reception transition probability Bad → Good
	LossGood   float64 // loss probability while Good (often near 0)
	LossBad    float64 // loss probability while Bad (often near 1)
}

// Validate reports parameter errors.
func (g GilbertParams) Validate() error {
	for name, p := range map[string]float64{
		"PGoodToBad": g.PGoodToBad, "PBadToGood": g.PBadToGood,
		"LossGood": g.LossGood, "LossBad": g.LossBad,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: gilbert %s=%g outside [0,1]", name, p)
		}
	}
	return nil
}

// Crash schedules one node crash. Unlike a churn disconnection — which
// preserves cache contents, relay registrations and coefficient history
// across the gap — a crash wipes all of it: the node restarts cold.
type Crash struct {
	At   Duration `json:"at"`
	Node int      `json:"node"`
	// RestartAfter is how long the node stays down; zero means it never
	// comes back.
	RestartAfter Duration `json:"restart_after"`
}

// Assassination kills the relay peers currently registered for Item at
// the scheduled instant — the targeted §4.3 re-election stress: the
// relay tier must rebuild from the surviving candidate pool.
type Assassination struct {
	At   Duration    `json:"at"`
	Item data.ItemID `json:"item"`
	// Count bounds how many of the item's current relays die (ascending
	// node id); zero means all of them.
	Count int `json:"count,omitempty"`
	// RestartAfter is how long the victims stay down; zero means forever.
	RestartAfter Duration `json:"restart_after,omitempty"`
}

// Config is one fault campaign, for the simulator or for a cluster of
// live daemons. The zero value injects nothing and costs nothing.
type Config struct {
	// Seed roots the wire's derived streams (per-link loss chains,
	// per-daemon jitter and duplication draws). The simulator ignores it:
	// its streams derive from the run seed.
	Seed int64 `json:"seed,omitempty"`
	// Loss installs the Gilbert–Elliott model (zero: none). The simulator
	// runs one chain over every link-level reception, replacing netsim's
	// uniform LossRate; the wire runs one chain per incoming link.
	Loss GilbertParams `json:"loss"`
	// Delay is a fixed extra latency on every frame a daemon receives
	// (wire only; the simulator ignores it, its hop model is the latency).
	Delay Duration `json:"delay,omitempty"`
	// Jitter delays a final delivery by a uniform draw in [0, Jitter),
	// letting later sends overtake it. The simulator jitters unicast final
	// hops only — floods and local deliveries pass untouched — and the wire
	// every received frame.
	Jitter Duration `json:"jitter,omitempty"`
	// DupProb delivers a second copy with this probability; the copy draws
	// its own jitter (plus Delay on the wire). Same scope as Jitter.
	DupProb float64 `json:"dup_prob,omitempty"`
	// Partitions lists scheduled island cuts (non-overlapping); both
	// backends drop a cut frame at its receiver.
	Partitions []Partition `json:"partitions,omitempty"`
	// Crashes lists scheduled crash/restarts: the simulator wipes the
	// node's state; the wire cluster's churn controller kills the daemon
	// and cold-restarts it.
	Crashes []Crash `json:"crashes,omitempty"`
	// Assassinations need the RPCC engine's relay table, so only the
	// simulator runs them; the wire rejects a campaign that lists any.
	Assassinations []Assassination `json:"assassinations,omitempty"`
	// RepairWindow bounds the simulator's heal-convergence invariant:
	// after every partition heal, registered relays must hold the master's
	// heal-time version within this window. Zero disables the check. The
	// wire ignores it, like StrongStaleBudget: its live judge has its own
	// envelopes.
	RepairWindow Duration `json:"repair_window,omitempty"`
	// StrongStaleBudget is the tolerated fraction of answers that were
	// stale at strong level. RPCC's SC guarantee is TTR-window
	// approximate even fault-free, so the invariant audited is "the
	// stale-SC rate stays within budget", not strictly zero; torn and
	// future answers are always strictly zero. Zero means strict.
	StrongStaleBudget float64 `json:"strong_stale_budget,omitempty"`
}

// Enabled reports whether the campaign injects anything into a simulated
// run.
func (c Config) Enabled() bool {
	return len(c.Partitions) > 0 || c.Loss != (GilbertParams{}) || len(c.Crashes) > 0 ||
		len(c.Assassinations) > 0 || c.DupProb > 0 || c.Jitter > 0
}

// IsZero reports whether the campaign asks for nothing at all: no fault
// and no audit tolerance. A simulated run installs the plane and the
// invariant auditor iff its campaign is not zero, so an audit-only
// campaign still audits.
func (c Config) IsZero() bool {
	return !c.Enabled() && c.Seed == 0 && c.Delay == 0 &&
		c.RepairWindow == 0 && c.StrongStaleBudget == 0
}

// Validate reports configuration errors. n is the node count.
func (c Config) Validate(n int) error {
	if n <= 0 {
		return fmt.Errorf("faults: need at least one node, got %d", n)
	}
	parts := append([]Partition(nil), c.Partitions...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
	for i, p := range parts {
		if p.Start < 0 || p.End <= p.Start {
			return fmt.Errorf("faults: partition %d window [%v, %v) is empty or negative", i, p.Start, p.End)
		}
		if i > 0 && parts[i-1].End > p.Start {
			// Overlapping partitions would need island composition; both
			// backends keep one island map at a time, so reject them.
			return fmt.Errorf("faults: partitions overlap at %v", p.Start)
		}
		if len(p.Islands) == 0 {
			return fmt.Errorf("faults: partition %d lists no islands", i)
		}
		seen := make(map[int]bool)
		for _, g := range p.Islands {
			for _, nd := range g {
				if nd < 0 || nd >= n {
					return fmt.Errorf("faults: partition %d node %d out of range", i, nd)
				}
				if seen[nd] {
					return fmt.Errorf("faults: partition %d lists node %d twice", i, nd)
				}
				seen[nd] = true
			}
		}
	}
	if err := c.Loss.Validate(); err != nil {
		return err
	}
	for i, cr := range c.Crashes {
		if cr.Node < 0 || cr.Node >= n {
			return fmt.Errorf("faults: crash %d node %d out of range", i, cr.Node)
		}
		if cr.At < 0 || cr.RestartAfter < 0 {
			return fmt.Errorf("faults: crash %d has negative timing", i)
		}
	}
	for i, a := range c.Assassinations {
		if a.At < 0 || a.RestartAfter < 0 {
			return fmt.Errorf("faults: assassination %d has negative timing", i)
		}
		if a.Count < 0 {
			return fmt.Errorf("faults: assassination %d negative count", i)
		}
		if a.Item < 0 || int(a.Item) >= n {
			return fmt.Errorf("faults: assassination %d item %v out of range", i, a.Item)
		}
	}
	if c.DupProb < 0 || c.DupProb >= 1 {
		return fmt.Errorf("faults: duplication probability %g outside [0,1)", c.DupProb)
	}
	if c.Delay < 0 || c.Jitter < 0 {
		return fmt.Errorf("faults: negative delay %v or jitter %v", c.Delay, c.Jitter)
	}
	if c.RepairWindow < 0 {
		return fmt.Errorf("faults: negative repair window %v", c.RepairWindow)
	}
	if c.StrongStaleBudget < 0 || c.StrongStaleBudget > 1 {
		return fmt.Errorf("faults: strong-stale budget %g outside [0,1]", c.StrongStaleBudget)
	}
	return nil
}

// ParseScript decodes a JSON campaign. Unknown fields are rejected: a
// typo in a chaos campaign must fail loudly, not silently un-inject.
func ParseScript(b []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("faults: parse campaign: %w", err)
	}
	return &c, nil
}

// LoadScript reads and parses a JSON campaign file.
func LoadScript(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseScript(b)
}

// Demo is the demonstration campaign for an n-peer field over 25
// simulated minutes (rpcc run -faults demo; testdata/demo.json is Demo(50)):
// the highest-numbered half of the peers cut off from 5 to 10 minutes,
// bursty loss throughout, the first relay of item 3 assassinated at 15
// minutes, node 7 crashed at 18, mild duplication and jitter, and audit
// tolerances sized for RPCC-SC.
func Demo(n int) Config {
	island := make([]int, max(n/2, 1))
	for i := range island {
		island[i] = n - len(island) + i
	}
	return Config{
		Partitions: []Partition{{
			Start: Duration(5 * time.Minute), End: Duration(10 * time.Minute), Islands: [][]int{island},
		}},
		Loss:           GilbertParams{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.8},
		Crashes:        []Crash{{At: Duration(18 * time.Minute), Node: 7, RestartAfter: Duration(time.Minute)}},
		Assassinations: []Assassination{{At: Duration(15 * time.Minute), Item: 3, Count: 1, RestartAfter: Duration(2 * time.Minute)}},
		DupProb:        0.01,
		Jitter:         Duration(5 * time.Millisecond),
		// Repair is trigger-driven (an INVALIDATION flood every TTN = 2m),
		// so the window spans several trigger cycles for the check to be
		// non-vacuous.
		RepairWindow: Duration(6 * time.Minute),
		// RPCC-SC's strong level is TTR-window approximate even fault-free
		// (~14% stale answers over the 25 minutes at 50 peers); the budget
		// tolerates that plus fault-induced degradation.
		StrongStaleBudget: 0.5,
	}
}
