// Package core implements RPCC — the Relay Peer-based Cache Consistency
// protocol that is the paper's contribution (§4).
//
// RPCC inserts a relay-peer tier between each data item's source host and
// its cache nodes. The source host pushes to relay peers: a periodic
// TTL-scoped INVALIDATION flood every TTN, plus UPDATE unicasts carrying
// new content to every registered relay. Cache nodes pull from relay
// peers: a TTL-scoped POLL flood that any relay (or the source itself)
// answers with POLL_ACK_A ("your copy is current") or POLL_ACK_B (new
// content). Relay-peer membership is self-selected via the CAR/CS/CE
// coefficient criterion (Eq 4.2.1–4.2.8) plus an APPLY/APPLY_ACK handshake
// with the source host, and torn down with CANCEL. GET_NEW/SEND_NEW repair
// a relay that missed updates while disconnected (§4.5).
//
// Queries are served per their consistency level (§4.4): weak answers come
// straight from the local cache; Δ-consistency answers are local while the
// copy's TTP has not expired; strong (and TTP-expired Δ) queries poll.
package core

import (
	"fmt"
	"time"
)

// The protocol constants no experiment varies.
const (
	// PollTTL is the scope of the first POLL ring a cache node floods
	// when it must validate a copy.
	PollTTL = 2
	// RepairTimeout bounds how long a node waits on an outstanding APPLY
	// or GET_NEW before the next INVALIDATION may retrigger it. Without
	// it a single lost APPLY_ACK or SEND_NEW would wedge the relay
	// lifecycle forever (§4.5's lost-message cases). It is also the first
	// rung of the retry backoff ladder: the wait doubles after every
	// unanswered re-send, capped at RepairBackoffMax.
	RepairTimeout = 10 * time.Second
	// RepairBackoffMax caps the exponential retry gate grown from
	// RepairTimeout.
	RepairBackoffMax = 8 * RepairTimeout
	// MaxRepairAttempts bounds consecutive unanswered APPLY or GET_NEW
	// sends for one item before the node gives up; strictly newer version
	// evidence (a higher INVALIDATION version) reopens the attempt
	// budget. Without a bound, a relay on the wrong side of a permanent
	// partition retries its source forever.
	MaxRepairAttempts = 6
)

// Config carries every RPCC knob an experiment varies. Defaults follow the
// paper's Table 1.
type Config struct {
	// InvalidationTTL is the hop scope of the periodic INVALIDATION flood
	// (Table 1: 3 hops). It determines which cache nodes can hear the
	// source and therefore become relay peers — the Fig 9 sweep variable.
	InvalidationTTL int
	// TTN is the source host's invalidation broadcast interval
	// (Table 1: 2 minutes).
	TTN time.Duration
	// TTR is how long a relay peer treats its copy as authoritative after
	// the last refresh from the source (Table 1: 1.5 minutes). TTR < TTN
	// means a relay goes conservative for the tail of each interval and
	// queues polls until the next INVALIDATION.
	TTR time.Duration
	// TTP is how long a cache node's copy satisfies Δ-consistency after
	// its last validation (Table 1: 4 minutes). TTP is the Δ of §4.4.
	TTP time.Duration
	// PollFallbackTTL is the network-wide scope used when no relay
	// answered the first ring (TTL_BR in Table 1: 8 hops).
	PollFallbackTTL int
	// PollTimeout is the per-stage wait before escalating or failing a
	// poll round. It also covers the relay-side "wait for the next
	// INVALIDATION" case: rather than stall the query for up to
	// TTN − TTR, the poller escalates and the relay's late answer is
	// discarded.
	PollTimeout time.Duration
	// CoeffPeriod is φ, the coefficient recomputation period (§4.2).
	CoeffPeriod time.Duration
	// Omega is ω, the recent-vs-history weight in Eq 4.2.2/4.2.4/4.2.5
	// (Table 1: 0.2).
	Omega float64
	// MuCAR, MuCS, MuCE are the selection thresholds of Eq 4.2.8
	// (Table 1: 0.15, 0.6, 0.6).
	MuCAR float64
	MuCS  float64
	MuCE  float64
	// DemoteAfter is how many consecutive failing coefficient windows a
	// candidate or relay tolerates before stepping down. The paper's
	// Fig 5 demotes on any failing window; a little hysteresis keeps the
	// relay population from flapping on coefficient noise.
	DemoteAfter int
	// ActiveSource, when non-nil, restricts the periodic source-host
	// duties (UPDATE push + INVALIDATION flood) to hosts for which it
	// returns true. The Fig 9 scenario has a single active source; all
	// other hosts own items nobody caches and stay silent.
	ActiveSource func(host int) bool
	// Mutant selects a deliberately broken protocol variant for the
	// conformance mutation gate (internal/oracle, rpcc conform) and the
	// chaos auditor's tests: each value reverts or corrupts exactly one
	// correctness-critical guard so a gate can prove it detects the
	// breakage. It exists solely for the verification tooling:
	// experiment configs cannot reach it, and the zero value is the
	// correct protocol.
	Mutant Mutant
}

// DefaultConfig returns the Table 1 parameterisation.
func DefaultConfig() Config {
	return Config{
		InvalidationTTL: 3,
		TTN:             2 * time.Minute,
		TTR:             90 * time.Second,
		TTP:             4 * time.Minute,
		PollFallbackTTL: 8,
		PollTimeout:     150 * time.Millisecond,
		CoeffPeriod:     time.Minute,
		Omega:           0.2,
		MuCAR:           0.15,
		MuCS:            0.6,
		MuCE:            0.6,
		DemoteAfter:     3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.InvalidationTTL <= 0 {
		return fmt.Errorf("core: non-positive invalidation TTL %d", c.InvalidationTTL)
	}
	if c.TTN <= 0 || c.TTR <= 0 || c.TTP <= 0 {
		return fmt.Errorf("core: non-positive timer (TTN=%v TTR=%v TTP=%v)", c.TTN, c.TTR, c.TTP)
	}
	if c.TTR > c.TTN {
		return fmt.Errorf("core: TTR %v must not exceed TTN %v (a relay cannot stay authoritative past the refresh it never got)", c.TTR, c.TTN)
	}
	if c.PollFallbackTTL < PollTTL {
		return fmt.Errorf("core: fallback poll TTL %d below the ring's %d", c.PollFallbackTTL, PollTTL)
	}
	if c.PollTimeout <= 0 {
		return fmt.Errorf("core: non-positive poll timeout %v", c.PollTimeout)
	}
	if c.CoeffPeriod <= 0 {
		return fmt.Errorf("core: non-positive coefficient period %v", c.CoeffPeriod)
	}
	if c.DemoteAfter <= 0 {
		return fmt.Errorf("core: non-positive demotion hysteresis %d", c.DemoteAfter)
	}
	if c.Omega < 0 || c.Omega > 1 {
		return fmt.Errorf("core: omega %g outside [0,1]", c.Omega)
	}
	for name, mu := range map[string]float64{"muCAR": c.MuCAR, "muCS": c.MuCS, "muCE": c.MuCE} {
		if mu <= 0 || mu > 1 {
			return fmt.Errorf("core: threshold %s=%g outside (0,1]", name, mu)
		}
	}
	if c.Mutant < MutantNone || c.Mutant > mutantMax {
		return fmt.Errorf("core: unknown mutant %d", c.Mutant)
	}
	return nil
}

// Mutant enumerates the deliberately broken protocol variants injected by
// the conformance mutation gate and the chaos auditor's tests. Each
// mutant corrupts one guard its gate must catch; MutantNone (the zero
// value) is the correct protocol.
type Mutant int

const (
	// MutantNone runs the unmodified protocol.
	MutantNone Mutant = iota
	// MutantStaleUpdate drops the version-monotone and freshness guards
	// on UPDATE/SEND_NEW application: a delayed or duplicated stale push
	// renews TTR and settles repair debt again — the pre-fix behaviour of
	// the reordered-UPDATE bug.
	MutantStaleUpdate
	// MutantIgnoreTTR makes a relay treat its copy as authoritative
	// forever after its first refresh, never letting TTR expire.
	MutantIgnoreTTR
	// MutantAckAOffByOne answers POLL_ACK_A ("your copy is current") to
	// pollers one version behind the authority, so they never receive the
	// fresh content a POLL_ACK_B would carry.
	MutantAckAOffByOne
	// MutantFloodTTLPlusOne floods INVALIDATION one hop beyond the
	// configured TTL, overreaching the paper's relay scope.
	MutantFloodTTLPlusOne
	// MutantFloodTTLMinusOne floods INVALIDATION one hop short of the
	// configured TTL, starving the boundary nodes of version evidence.
	MutantFloodTTLMinusOne
	// MutantTTPDouble doubles the Δ-consistency window at query time.
	MutantTTPDouble
	// MutantStoreRegression force-installs authoritative copies even when
	// older than the cached version, bypassing the cache's monotone guard
	// and regressing the node's answers.
	MutantStoreRegression
	// MutantNoRepair drops every GET_NEW/re-APPLY repair trigger, so a
	// relay cannot recover missed updates. The chaos auditor's
	// regression tests select it to prove they catch the resulting
	// consistency violations.
	MutantNoRepair

	mutantMax = MutantNoRepair
)

// String names the mutant for gate reports.
func (m Mutant) String() string {
	switch m {
	case MutantNone:
		return "none"
	case MutantStaleUpdate:
		return "stale-update-replay"
	case MutantIgnoreTTR:
		return "ignore-ttr"
	case MutantAckAOffByOne:
		return "acka-off-by-one"
	case MutantFloodTTLPlusOne:
		return "flood-ttl-plus-one"
	case MutantFloodTTLMinusOne:
		return "flood-ttl-minus-one"
	case MutantTTPDouble:
		return "ttp-double"
	case MutantStoreRegression:
		return "store-regression"
	case MutantNoRepair:
		return "no-repair"
	default:
		return fmt.Sprintf("mutant(%d)", int(m))
	}
}

// Role is a node's per-item protocol role (Fig 5's state diagram), one
// byte of every item state.
type Role uint8

// Roles. Values start at 1 so the zero value is detectably unset.
const (
	RoleNone Role = iota
	// RoleCache is a plain cache node.
	RoleCache
	// RoleCandidate passes the coefficient criterion and will APPLY on
	// the next INVALIDATION it hears.
	RoleCandidate
	// RoleRelay holds an APPLY_ACK from the source host.
	RoleRelay
)

// String renders the role for traces.
func (r Role) String() string {
	switch r {
	case RoleCache:
		return "cache"
	case RoleCandidate:
		return "candidate"
	case RoleRelay:
		return "relay"
	default:
		return "none"
	}
}
