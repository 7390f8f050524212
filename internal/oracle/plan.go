package oracle

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
)

// Rule matches a class of message deliveries and perturbs their
// schedule. Matching fields with -1 (or "" for Kind) match anything; a
// delivery is perturbed by the first rule whose match and occurrence
// both pass. Occurrence counts *base* matches (kind/version/item/to):
// Occurrence 0 perturbs every base match, Occurrence n perturbs only the
// nth. Rules are pure data so plans serialise into traces.
type Rule struct {
	// Kind is the protocol kind name as printed by Kind.String()
	// (e.g. "UPDATE", "INVALIDATION").
	Kind string `json:"kind"`
	// Version matches msg.Version; -1 matches any.
	Version int64 `json:"version"`
	// Item matches msg.Item; -1 matches any.
	Item int `json:"item"`
	// To matches the delivery destination node; -1 matches any.
	To int `json:"to"`
	// Occurrence selects the nth base match (1-based); 0 means every.
	Occurrence int `json:"occurrence"`
	// DelayMS postpones delivery (only the duplicate, when Dup is set).
	DelayMS int64 `json:"delay_ms,omitempty"`
	// Dup delivers twice: once on schedule, once after DelayMS.
	Dup bool `json:"dup,omitempty"`
	// Drop suppresses the delivery.
	Drop bool `json:"drop,omitempty"`
}

func (r Rule) String() string {
	return fmt.Sprintf("{%s v=%d item=%d to=%d occ=%d delay=%dms dup=%v drop=%v}",
		r.Kind, r.Version, r.Item, r.To, r.Occurrence, r.DelayMS, r.Dup, r.Drop)
}

// kindByName maps Kind.String() names back to kinds, built once.
var kindByName = func() map[string]protocol.Kind {
	m := make(map[string]protocol.Kind, protocol.NumKinds)
	for k := protocol.Kind(1); k.Valid(); k++ {
		m[k.String()] = k
	}
	return m
}()

// compileRules validates rule kinds up front so a bad plan fails fast
// rather than silently matching nothing.
func compileRules(rules []Rule) ([]protocol.Kind, error) {
	kinds := make([]protocol.Kind, len(rules))
	for i, r := range rules {
		k, ok := kindByName[r.Kind]
		if !ok {
			return nil, fmt.Errorf("oracle: rule %d: unknown message kind %q", i, r.Kind)
		}
		if r.DelayMS < 0 {
			return nil, fmt.Errorf("oracle: rule %d: negative delay %dms", i, r.DelayMS)
		}
		if r.Occurrence < 0 {
			return nil, fmt.Errorf("oracle: rule %d: negative occurrence %d", i, r.Occurrence)
		}
		kinds[i] = k
	}
	return kinds, nil
}

// perturber compiles rules into a netsim.Perturber with fresh occurrence
// counters. Deterministic: matching depends only on the delivery stream,
// which the kernel orders identically for identical seeds.
func perturber(rules []Rule) (netsim.Perturber, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	kinds, err := compileRules(rules)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(rules))
	return func(nd int, msg protocol.Message, meta netsim.Meta) netsim.Perturbation {
		for i, r := range rules {
			if msg.Kind != kinds[i] {
				continue
			}
			if r.Version >= 0 && msg.Version != data.Version(r.Version) {
				continue
			}
			if r.Item >= 0 && msg.Item != data.ItemID(r.Item) {
				continue
			}
			if r.To >= 0 && nd != r.To {
				continue
			}
			counts[i]++
			if r.Occurrence != 0 && counts[i] != r.Occurrence {
				continue
			}
			delay := time.Duration(r.DelayMS) * time.Millisecond
			if r.Dup {
				return netsim.Perturbation{Dup: true, DupDelay: delay, Drop: r.Drop}
			}
			return netsim.Perturbation{Delay: delay, Drop: r.Drop}
		}
		return netsim.Perturbation{}
	}, nil
}

// maxRuleDelay returns the largest delay any rule can inject, used to
// inflate staleness envelopes so delayed fresh evidence cannot trip the
// oracle.
func maxRuleDelay(rules []Rule) time.Duration {
	var max time.Duration
	for _, r := range rules {
		if r.Drop {
			continue
		}
		if d := time.Duration(r.DelayMS) * time.Millisecond; d > max {
			max = d
		}
	}
	return max
}
