package oracle

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
)

// Live judging: the wire subsystem (internal/wire) runs the same engine
// over real UDP sockets, where the omniscient in-run Model cannot sit on
// the event path — deliveries happen on many goroutines across many
// kernels, and wall clocks replace the virtual clock. Instead, a
// LiveRecorder collects two thread-safe ledgers during the run — every
// commit at an item's owner and every answer served anywhere — and
// JudgeLive replays the Model's rules over them afterwards.
//
// The rules are consistency.Judge's and consistency.Watermarks', the same
// call the sim oracle makes; what wall time changes is what the judge is
// handed: the recorded ledger as history, Slack as the commit-ordering
// skew, a horizon of answer time − envelope − slack − inflate walked
// back over the adversity windows (Inflate widens every envelope for
// real-network soundness: UDP delivery, scheduler jitter and timer
// coalescing add latencies the protocol's virtual-time analysis never
// sees), and the node's latest restart as its epoch.
//
// Reachability rules (overreach/underreach) need the topology oracle and
// do not apply on a single loopback segment.

// LiveCommit is one committed write at an item's owner.
type LiveCommit struct {
	Item    data.ItemID
	Version data.Version
	// At is the commit instant, measured from the recorder epoch.
	At time.Duration
}

// LiveAnswer is one served answer observed at any node.
type LiveAnswer struct {
	Node  int
	Item  data.ItemID
	Level consistency.Level
	// Served is the full served copy, so torn detection can compare the
	// actual content against the canonical value.
	Served data.Copy
	// At is the answer instant, measured from the recorder epoch.
	At time.Duration
}

// LiveRecorder accumulates commit and answer ledgers during a live run.
// All methods are safe for concurrent use; every node of an in-process
// cluster shares one recorder.
type LiveRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	commits []LiveCommit
	answers []LiveAnswer
}

// NewLiveRecorder starts a recorder; the epoch is the construction
// instant and all recorded times are offsets from it.
func NewLiveRecorder(epoch time.Time) *LiveRecorder {
	return &LiveRecorder{epoch: epoch}
}

// Commit records that item reached version at wall-clock instant at.
func (r *LiveRecorder) Commit(item data.ItemID, v data.Version, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commits = append(r.commits, LiveCommit{Item: item, Version: v, At: at.Sub(r.epoch)})
}

// Answer records a served answer at wall-clock instant at.
func (r *LiveRecorder) Answer(node int, item data.ItemID, level consistency.Level, served data.Copy, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.answers = append(r.answers, LiveAnswer{
		Node: node, Item: item, Level: level, Served: served, At: at.Sub(r.epoch),
	})
}

// Ledgers returns copies of the recorded commit and answer ledgers.
func (r *LiveRecorder) Ledgers() (commits []LiveCommit, answers []LiveAnswer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LiveCommit(nil), r.commits...), append([]LiveAnswer(nil), r.answers...)
}

// LiveWindow is one scheduled adversity interval [Start, End): a
// partition cut, a daemon's down time, or any other period when
// invalidation/poll traffic demonstrably could not flow. Node restricts
// the window to one daemon; -1 applies it cluster-wide.
type LiveWindow struct {
	Start, End time.Duration
	Node       int
}

// LiveRestart records the completion instant of one daemon's cold
// restart. From At onward the node's knowledge epoch restarts: its
// placement re-warms from version 0, so staleness before the epoch is
// the schedule's fault, not the protocol's — and its served-version
// watermark resets, because monotone reads are a per-process session
// guarantee, not a cross-incarnation one.
type LiveRestart struct {
	Node int
	At   time.Duration
}

// LiveSpec parameterises live judging.
type LiveSpec struct {
	// Envelopes maps each audited consistency level to its staleness
	// bound; levels absent from the map (WC) skip the staleness rule.
	Envelopes map[consistency.Level]time.Duration
	// Slack forgives in-flight answers and ledger-ordering skew.
	Slack time.Duration
	// Inflate widens every envelope for real-network delay soundness.
	Inflate time.Duration
	// Windows lists the scheduled adversity intervals. The staleness
	// lookback horizon is extended past them: time spent inside an
	// applicable window is time the node provably could not learn, so it
	// does not count against the envelope. This is the same soundness
	// discipline as the sim oracle's partition awareness — forgive
	// exactly what the schedule explains, never more.
	Windows []LiveWindow
	// Restarts lists daemon cold-restart completions (see LiveRestart).
	Restarts []LiveRestart
}

// Validate reports spec errors.
func (s LiveSpec) Validate() error {
	if s.Slack < 0 || s.Inflate < 0 {
		return fmt.Errorf("oracle: negative slack %v or inflate %v", s.Slack, s.Inflate)
	}
	for l, env := range s.Envelopes {
		if !l.Valid() {
			return fmt.Errorf("oracle: envelope for invalid level %d", l)
		}
		if env < 0 {
			return fmt.Errorf("oracle: negative envelope %v for %v", env, l)
		}
	}
	for _, w := range s.Windows {
		if w.Start < 0 || w.End < w.Start {
			return fmt.Errorf("oracle: bad adversity window [%v,%v)", w.Start, w.End)
		}
		if w.Node < -1 {
			return fmt.Errorf("oracle: adversity window node %d (want >= -1)", w.Node)
		}
	}
	for _, r := range s.Restarts {
		if r.Node < 0 || r.At < 0 {
			return fmt.Errorf("oracle: bad restart record node %d at %v", r.Node, r.At)
		}
	}
	return nil
}

// horizonFor computes the staleness lookback horizon for an answer by
// node at time at with envelope env. The protocol is owed env (+slack
// +inflate) of *connected* time to propagate a version, so the horizon
// is the instant with that much clear (non-window) time between it and
// the answer: walk backward from the answer through the node's merged
// adversity windows, paying the lookback only out of the gaps.
func (s LiveSpec) horizonFor(node int, at time.Duration, env time.Duration) time.Duration {
	need := env + s.Slack + s.Inflate
	if len(s.Windows) == 0 {
		return at - need
	}
	wins := make([]LiveWindow, 0, len(s.Windows))
	for _, w := range s.Windows {
		if (w.Node == -1 || w.Node == node) && w.Start < at && w.End > w.Start {
			wins = append(wins, w)
		}
	}
	sort.Slice(wins, func(a, b int) bool { return wins[a].End > wins[b].End })
	cur := at
	for _, w := range wins {
		end := w.End
		if end > cur {
			end = cur
		}
		if end <= w.Start {
			continue // fully absorbed by a later (already-walked) window
		}
		if gap := cur - end; gap >= need {
			return cur - need
		} else {
			need -= gap
		}
		cur = w.Start
	}
	return cur - need
}

// epochFor returns node's knowledge epoch at time at: the completion of
// its latest restart at or before at, or 0 for a never-restarted node.
func (s LiveSpec) epochFor(node int, at time.Duration) time.Duration {
	var epoch time.Duration
	for _, r := range s.Restarts {
		if r.Node == node && r.At <= at && r.At > epoch {
			epoch = r.At
		}
	}
	return epoch
}

// judge runs the one answer judge over a — consistency.Judge for the
// torn / uncommitted / stale rules, wm for monotone reads — and appends
// a Divergence per broken rule. What the substrate supplies: h, the
// item's commit history; since, the start of the node's knowledge epoch
// (staleness is judged only once the horizon clears it: before, old
// versions are the warm-up's doing, and 0 is the initial-warm
// forgiveness); commitSlack, the ledger-ordering skew; epoch, the node's
// monotone-reads epoch at the answer. A torn or uncommitted answer is
// no observation of a version, so it leaves the watermark alone.
func (s LiveSpec) judge(divs []Divergence, wm *consistency.Watermarks, h consistency.History, a LiveAnswer,
	since, commitSlack time.Duration, epoch int64) []Divergence {
	var horizon time.Duration
	env, bounded := s.Envelopes[a.Level]
	if bounded {
		if horizon = s.horizonFor(a.Node, a.At, env); horizon <= since {
			horizon = 0
		}
	}
	d := Divergence{At: a.At, Node: a.Node, Item: a.Item, Level: a.Level.String(), Served: a.Served.Version}
	v := consistency.Judge(h, a.Item, a.Level, a.Served, a.At, horizon, commitSlack)
	switch v.Kind {
	case consistency.ViolationTorn:
		d.Kind = DivTorn
		d.Detail = fmt.Sprintf("served item %d value %q", a.Served.ID, a.Served.Value)
		return append(divs, d)
	case consistency.ViolationFuture:
		ct, committed := h.CommitTime(a.Served.Version)
		d.Kind = DivUncommitted
		d.Detail = fmt.Sprintf("committed=%v commitTime=%v", committed, ct)
		return append(divs, d)
	case consistency.ViolationStrong, consistency.ViolationDelta:
		stale := d
		stale.Kind, stale.MinOK = DivStale, v.MinOK
		stale.Detail = fmt.Sprintf("envelope=%v slack=%v inflate=%v", env, s.Slack, s.Inflate)
		divs = append(divs, stale)
	}
	if floor, regressed := wm.Observe(a.Node, a.Item, a.Served.Version, epoch); regressed {
		d.Kind, d.MinOK, d.Detail = DivMonotone, floor, "answer regressed below watermark"
		divs = append(divs, d)
	}
	return divs
}

// ledger is one item's recorded commits in version order: the wire's
// consistency.History. Version 0 (the pre-seeded placement copy) is
// committed at the epoch and is never in the ledger.
type ledger []LiveCommit

// noCommits is the history of an item nobody ever wrote.
var noCommits consistency.History = ledger(nil)

// CommitTime returns when v was committed.
func (l ledger) CommitTime(v data.Version) (time.Duration, bool) {
	if v == 0 {
		return 0, true
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Version >= v })
	if i < len(l) && l[i].Version == v {
		return l[i].At, true
	}
	return 0, false
}

// VersionAt returns the newest version committed at or before t.
func (l ledger) VersionAt(t time.Duration) data.Version {
	i := sort.Search(len(l), func(i int) bool { return l[i].At > t })
	if i == 0 {
		return 0
	}
	return l[i-1].Version
}

// ledgers splits a commit ledger into per-item histories. Commits come
// from one writer per item, so an item's versions and times both rise;
// sort defensively anyway (ledger append order is cross-item).
func ledgers(commits []LiveCommit) (map[data.ItemID]consistency.History, error) {
	sorted := append([]LiveCommit(nil), commits...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Item != sorted[b].Item {
			return sorted[a].Item < sorted[b].Item
		}
		return sorted[a].Version < sorted[b].Version
	})
	lines := make(map[data.ItemID]consistency.History)
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for ; hi < len(sorted) && sorted[hi].Item == sorted[lo].Item; hi++ {
			if prev, c := sorted[hi-1], sorted[hi]; c.At < prev.At {
				return nil, fmt.Errorf("oracle: item %d commit times regress (v%d at %v after v%d at %v)",
					c.Item, c.Version, c.At, prev.Version, prev.At)
			}
		}
		lines[sorted[lo].Item] = ledger(sorted[lo:hi])
		lo = hi
	}
	return lines, nil
}

// JudgeLive replays the oracle rules over a live run's ledgers and
// returns every divergence found (empty means the run conformed).
func JudgeLive(commits []LiveCommit, answers []LiveAnswer, spec LiveSpec) ([]Divergence, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lines, err := ledgers(commits)
	if err != nil {
		return nil, err
	}

	// Judge answers in time order so the monotone watermark is causal.
	ordered := append([]LiveAnswer(nil), answers...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].At < ordered[b].At })

	// A cold restart ends the read session — the incarnation that made
	// the old promise is gone — so the restart instant is the watermark
	// epoch as well as the knowledge epoch.
	var wm consistency.Watermarks
	var divs []Divergence
	for _, a := range ordered {
		h, written := lines[a.Item]
		if !written {
			h = noCommits
		}
		since := spec.epochFor(a.Node, a.At)
		divs = spec.judge(divs, &wm, h, a, since, spec.Slack, int64(since))
	}
	return divs, nil
}
