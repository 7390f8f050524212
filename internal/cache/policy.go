package cache

import (
	"fmt"
	"time"
)

// PolicyKind names a replacement policy for configuration surfaces
// (experiment.Config, CLI flags, oracle scenarios).
type PolicyKind string

// The built-in replacement policies.
const (
	// PolicyLRU evicts the least recently used entry — the default, and
	// the paper's implicit choice.
	PolicyLRU PolicyKind = "lru"
	// PolicyLFU evicts the least frequently used entry, with periodic
	// halving of all counts so stale popularity ages out.
	PolicyLFU PolicyKind = "lfu"
	// PolicyTTL evicts the entry closest to staleness: minimum
	// storedAt + TTL. Fresh copies survive; about-to-expire ones go
	// first (they would cost a refresh anyway).
	PolicyTTL PolicyKind = "ttl"
	// PolicyUtility evicts the entry with the least keep-utility:
	// access rate x distance-to-source hops / payload size, after the
	// utility-based replacement schemes for cooperative MANET caches.
	PolicyUtility PolicyKind = "utility"
)

// Valid reports whether k names a built-in policy. The empty kind is
// valid and means the default (LRU).
func (k PolicyKind) Valid() bool {
	switch k {
	case "", PolicyLRU, PolicyLFU, PolicyTTL, PolicyUtility:
		return true
	default:
		return false
	}
}

// AllPolicyKinds returns the built-in kinds in presentation order.
func AllPolicyKinds() []PolicyKind {
	return []PolicyKind{PolicyLRU, PolicyLFU, PolicyTTL, PolicyUtility}
}

// PolicyParams tunes the built-in policies; zero values select defaults.
type PolicyParams struct {
	// TTL is PolicyTTL's freshness horizon (default 4 minutes, the
	// paper's TTP). Entries are ranked by storedAt + TTL.
	TTL time.Duration
	// AgePeriod is how many admissions and touches pass between
	// PolicyLFU's count halvings (default 128; 0 selects the default,
	// negative is rejected by NewPolicy).
	AgePeriod int
}

// Default policy tuning.
const (
	DefaultPolicyTTL      = 4 * time.Minute
	DefaultLFUAgePeriod   = 128
	defaultUtilityMinSize = 1
)

// Policy is a validated replacement policy: the rank a full store
// minimises over its entries to choose a victim, with that rank's tuning.
// It is a plain value — one Policy configures any number of stores — and
// the zero Policy is LRU.
//
// Every rank reads only the per-entry statistics the store keeps inline
// (see entry) and the store's logical clock, which advances once per
// admission or touch; that clock, not simulated time, is what keeps
// victims a pure function of the operation sequence. Ties go to the lower
// item id.
type Policy struct {
	kind      PolicyKind
	ttl       time.Duration
	agePeriod uint64 // LFU only: clock ticks between count halvings
}

// NewPolicy validates and builds the named policy. The empty kind yields
// LRU.
func NewPolicy(kind PolicyKind, p PolicyParams) (Policy, error) {
	if p.TTL < 0 {
		return Policy{}, fmt.Errorf("cache: negative policy TTL %v", p.TTL)
	}
	if p.AgePeriod < 0 {
		return Policy{}, fmt.Errorf("cache: negative LFU age period %d", p.AgePeriod)
	}
	switch kind {
	case "", PolicyLRU:
		return Policy{}, nil
	case PolicyLFU:
		period := p.AgePeriod
		if period == 0 {
			period = DefaultLFUAgePeriod
		}
		return Policy{kind: PolicyLFU, agePeriod: uint64(period)}, nil
	case PolicyTTL:
		ttl := p.TTL
		if ttl == 0 {
			ttl = DefaultPolicyTTL
		}
		return Policy{kind: PolicyTTL, ttl: ttl}, nil
	case PolicyUtility:
		return Policy{kind: PolicyUtility}, nil
	default:
		return Policy{}, fmt.Errorf("cache: unknown policy kind %q", kind)
	}
}

// rankByLastUse reports whether an entry's seen word is its latest
// admission or touch (LRU, below's default) rather than its admission
// (LFU and utility; TTL reads neither).
func (p Policy) rankByLastUse() bool { return p.kind != PolicyLFU && p.kind != PolicyUtility }

// below reports whether a ranks strictly below b — is the better victim —
// at logical time tick.
func (p Policy) below(a, b *entry, tick uint64) bool {
	switch p.kind {
	case PolicyLFU:
		// Fewest aged uses; among equals the older admission.
		return a.uses < b.uses || (a.uses == b.uses && a.seen < b.seen)
	case PolicyTTL:
		// Earliest expiry. storedAt advances only with the version (see
		// Store.PutEvict), so a same-version re-Put does not rejuvenate.
		return a.storedAt+p.ttl < b.storedAt+p.ttl
	case PolicyUtility:
		return utility(a, tick) < utility(b, tick)
	default:
		// Least recently admitted or touched.
		return a.seen < b.seen
	}
}

// utility is e's keep-value under PolicyUtility: an entry is worth keeping
// in proportion to how often it is accessed and how far away its source is
// (a re-fetch costs more hops of traffic), and in inverse proportion to the
// cache space it occupies:
//
//	utility = (uses / residency) * (hops + 1) / size
//
// Residency is counted in clock ticks since admission, so utility stays a
// pure function of the operation sequence.
func utility(e *entry, tick uint64) float64 {
	residency := tick - e.seen + 1
	size := len(e.value)
	if size < defaultUtilityMinSize {
		size = defaultUtilityMinSize
	}
	rate := float64(e.uses) / float64(residency)
	return rate * float64(e.hops+1) / float64(size)
}
