package consistency

import (
	"time"

	"github.com/manetlab/rpcc/internal/data"
)

// History is one item's commit ledger as a judge reads it. *data.Master
// is one (the simulator's ground truth); the wire's recorded commit
// ledger is the other.
type History interface {
	// CommitTime returns when version v was committed, or false if it
	// never was.
	CommitTime(v data.Version) (time.Duration, bool)
	// VersionAt returns the newest version committed at or before t
	// (version 0 for any t before the first commit).
	VersionAt(t time.Duration) data.Version
}

// Unknown is the staleness of an answer no ledger could date.
const Unknown time.Duration = -1

// Verdict is the judge's decision on one answer.
type Verdict struct {
	// Kind is the rule the answer broke, ViolationNone if it broke none.
	Kind Violation
	// Stale is how long the served version had been superseded at the
	// answer instant: zero while it was still current (and for torn or
	// uncommitted answers, which have no place on the timeline), Unknown
	// without a history.
	Stale time.Duration
	// MinOK is the oldest version the horizon still allowed; set only on
	// a staleness violation.
	MinOK data.Version
}

// Judge decides one answer — the only place the repository evaluates Eq
// 3.2.1–3.2.3. The rules, in order:
//
//  1. torn: the served copy must be the canonical content of (item,
//     version).
//  2. uncommitted: the served version must be in h, committed no later
//     than at+commitSlack (ledger-ordering skew between wall clocks; zero
//     in the simulator).
//  3. stale: the served version must not have been superseded before
//     horizon, the instant the caller derives from the level's bound
//     ("at most Δ behind": superseded exactly at the horizon is still
//     inside the bound). A horizon at or before time zero bounds nothing,
//     which is how callers express weak consistency and warm-up
//     forgiveness. A violation is ViolationStrong at LevelStrong and
//     ViolationDelta at any other level.
//
// A nil history is a judge without a ledger: it decides rule 1, abstains
// from 2 and 3, and reports the staleness as Unknown rather than a false
// zero. Judge allocates nothing.
func Judge(h History, item data.ItemID, level Level, served data.Copy, at, horizon, commitSlack time.Duration) Verdict {
	if served.ID != item || !served.Consistent() {
		return Verdict{Kind: ViolationTorn}
	}
	if h == nil {
		return Verdict{Stale: Unknown}
	}
	if ct, ok := h.CommitTime(served.Version); !ok || ct > at+commitSlack {
		return Verdict{Kind: ViolationFuture}
	}
	var v Verdict
	if succ, ok := h.CommitTime(served.Version + 1); ok && succ < at {
		v.Stale = at - succ
	}
	// Time is integer nanoseconds, so VersionAt(horizon-1) is the newest
	// version committed strictly before the horizon.
	if minOK := h.VersionAt(horizon - 1); served.Version < minOK {
		v.MinOK = minOK
		v.Kind = ViolationDelta
		if level == LevelStrong {
			v.Kind = ViolationStrong
		}
	}
	return v
}

// Mark is one (node, item) watermark: the newest version observed and
// the epoch it was observed in.
type Mark struct {
	Version data.Version
	Epoch   int64
}

// Watermarks holds the monotone-reads rule: per (node, item), observed
// versions never regress inside one epoch. An epoch is whatever bounds
// the promise on the substrate — a node's crash count in the simulator
// oracle, its restart count on the wire, a cached copy's admission time
// in the chaos sweep — and an observation in a new epoch restarts the
// baseline instead of being compared. The zero value is ready to use;
// rows are indexed by node and grow on demand.
type Watermarks []map[data.ItemID]Mark

// Observe records that node saw version v of item during epoch. If that
// regresses below the mark of the same epoch it reports the mark's
// version and true, and the mark stands; otherwise v becomes the mark.
func (w *Watermarks) Observe(node int, item data.ItemID, v data.Version, epoch int64) (data.Version, bool) {
	for len(*w) <= node {
		*w = append(*w, nil)
	}
	row := (*w)[node]
	if row == nil {
		row = make(map[data.ItemID]Mark)
		(*w)[node] = row
	}
	if prev, seen := row[item]; seen && prev.Epoch == epoch && v < prev.Version {
		return prev.Version, true
	}
	row[item] = Mark{Version: v, Epoch: epoch}
	return 0, false
}
