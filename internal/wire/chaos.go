package wire

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/stats"
)

// Wire-level chaos plane: the simulator's fault campaign (faults.Config,
// the same JSON) applied at the wire.Transport seam of live UDP daemons.
// One campaign is shared by every daemon of a cluster; each daemon
// derives its own per-link Gilbert–Elliott chains and jitter streams from
// the campaign seed and the node ids, so the whole cluster computes one
// coherent fault schedule with no coordination traffic.
//
// Determinism discipline: everything *scheduled* (partition windows,
// crash/restart times, model parameters, derived stream seeds) is a pure
// function of the script — ScheduleLog renders it byte-identically on
// every run, which is what the wire-chaos CI gate byte-compares. The
// *per-frame* outcomes (which datagram a chain eats) are deterministic
// given the reception sequence; across live runs the sequence itself
// carries wall-clock nondeterminism, so per-frame outcomes are
// reproducible in distribution, not byte-for-byte — the honest best a
// real network allows, documented in DESIGN.md §10.

// Script and Duration name the campaign schema for the frozen benchmark
// module (bench/wire.go), which predates the move of the schema into
// internal/faults; new code uses faults.Config and faults.Duration. Both
// go when the benchmark is next re-pointed.
type (
	Script   = faults.Config
	Duration = faults.Duration
)

// chainSeed derives the loss-chain seed for the from→to link. Pure
// arithmetic on the script seed and endpoint ids, so both ends (and the
// schedule log) agree without communicating.
func chainSeed(seed int64, from, to int) int64 {
	return seed + 1_000_003*int64(from+1) + 7_919*int64(to+1)
}

// nodeSeed derives the per-node jitter/duplication stream seed.
func nodeSeed(seed int64, self int) int64 {
	return seed + 104_729*int64(self+1)
}

// ScheduleLog renders the expanded fault schedule of campaign s for an
// n-node cluster: every scheduled window and crash, the model parameters,
// and the derived stream seeds. It is a pure function of (s, n) — two
// runs of the same campaign must produce byte-identical logs, which the
// wire-chaos CI gate enforces with cmp.
func ScheduleLog(s *faults.Config, n int) string {
	var b strings.Builder
	lossy := s.Loss != (faults.GilbertParams{})
	fmt.Fprintf(&b, "wire-chaos schedule: seed=%d nodes=%d\n", s.Seed, n)
	if lossy {
		fmt.Fprintf(&b, "loss: gilbert PGoodToBad=%g PBadToGood=%g LossGood=%g LossBad=%g\n",
			s.Loss.PGoodToBad, s.Loss.PBadToGood, s.Loss.LossGood, s.Loss.LossBad)
	} else {
		fmt.Fprintf(&b, "loss: none\n")
	}
	fmt.Fprintf(&b, "delay: %v jitter: %v dup: %g\n", s.Delay.D(), s.Jitter.D(), s.DupProb)
	parts := append([]faults.Partition(nil), s.Partitions...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
	for i, p := range parts {
		fmt.Fprintf(&b, "partition %d: [%v,%v) islands=%v\n", i+1, p.Start.D(), p.End.D(), p.Islands)
	}
	crashes := append([]faults.Crash(nil), s.Crashes...)
	sort.Slice(crashes, func(i, j int) bool { return crashes[i].At < crashes[j].At })
	for i, c := range crashes {
		if c.RestartAfter > 0 {
			fmt.Fprintf(&b, "crash %d: node %d at %v restart after %v\n", i+1, c.Node, c.At.D(), c.RestartAfter.D())
		} else {
			fmt.Fprintf(&b, "crash %d: node %d at %v (no restart)\n", i+1, c.Node, c.At.D())
		}
	}
	for to := 0; to < n; to++ {
		fmt.Fprintf(&b, "node %d: stream-seed=%d", to, nodeSeed(s.Seed, to))
		if lossy {
			var seeds []string
			for from := 0; from < n; from++ {
				if from != to {
					seeds = append(seeds, fmt.Sprintf("%d:%d", from, chainSeed(s.Seed, from, to)))
				}
			}
			fmt.Fprintf(&b, " chain-seeds=[%s]", strings.Join(seeds, " "))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// DemoScript is the canonical chaos campaign for an n-node cluster over
// duration d: bursty Gilbert–Elliott loss throughout, two partition
// windows splitting the cluster in half, and two crash/restarts at
// distinct nodes — the `make wire-chaos-smoke` shape. Windows are fixed
// fractions of d so the same campaign scales with the run length. Every
// node is listed on one side of each split.
func DemoScript(n int, d time.Duration, seed int64) *faults.Config {
	half := make([]int, 0, n/2)
	rest := make([]int, 0, n-n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			half = append(half, i)
		} else {
			rest = append(rest, i)
		}
	}
	frac := func(num, den int64) faults.Duration {
		return faults.Duration(d * time.Duration(num) / time.Duration(den))
	}
	s := &faults.Config{
		Seed: seed,
		Loss: faults.GilbertParams{
			PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.005, LossBad: 0.6,
		},
		Delay:   faults.Duration(2 * time.Millisecond),
		Jitter:  faults.Duration(8 * time.Millisecond),
		DupProb: 0.02,
		Partitions: []faults.Partition{
			{Start: frac(3, 20), End: frac(11, 40), Islands: [][]int{half, rest}},
			{Start: frac(10, 20), End: frac(25, 40), Islands: [][]int{half, rest}},
		},
	}
	if n >= 2 {
		s.Crashes = []faults.Crash{
			{At: frac(7, 20), Node: n / 3, RestartAfter: frac(2, 20)},
			{At: frac(14, 20), Node: (2 * n) / 3 % n, RestartAfter: frac(2, 20)},
		}
		if s.Crashes[0].Node == s.Crashes[1].Node {
			s.Crashes[1].Node = (s.Crashes[1].Node + 1) % n
		}
	}
	return s
}

// partitionWindow is a precomputed island cut: islandOf is the window's
// faults.Partition.IslandIDs.
type partitionWindow struct {
	start, end time.Duration
	islandOf   []int32
}

// Chaos is one daemon's shim instance: the campaign compiled for a given
// receiver. It is confined to the kernel goroutine (Plan is called from
// Transport.deliver) and draws only from its own derived streams, so
// installing it perturbs nothing else.
type Chaos struct {
	script *faults.Config
	self   int
	// offset maps this daemon's local virtual clock onto campaign time:
	// a cold-restarted daemon rejoins mid-schedule, so its partition
	// checks must add how far into the campaign it started.
	offset time.Duration

	parts  []partitionWindow
	chains []*faults.GilbertElliott // per sender id; nil without Loss
	rng    *rand.Rand
}

// NewChaos compiles script for the daemon self in an n-node cluster,
// starting offset into the campaign schedule. It rejects relay
// assassinations: a daemon's transport has no relay table to aim them.
func NewChaos(script *faults.Config, self, n int, offset time.Duration) (*Chaos, error) {
	if script == nil {
		return nil, fmt.Errorf("wire: nil chaos script")
	}
	if err := script.Validate(n); err != nil {
		return nil, err
	}
	if len(script.Assassinations) > 0 {
		return nil, fmt.Errorf("wire: relay assassinations need the simulator's relay table")
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("wire: chaos self %d out of range [0,%d)", self, n)
	}
	if offset < 0 {
		return nil, fmt.Errorf("wire: negative chaos offset %v", offset)
	}
	c := &Chaos{
		script: script,
		self:   self,
		offset: offset,
		rng:    rand.New(rand.NewSource(nodeSeed(script.Seed, self))),
	}
	parts := append([]faults.Partition(nil), script.Partitions...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start < parts[j].Start })
	for _, p := range parts {
		c.parts = append(c.parts, partitionWindow{start: p.Start.D(), end: p.End.D(), islandOf: p.IslandIDs(n)})
	}
	if script.Loss != (faults.GilbertParams{}) {
		c.chains = make([]*faults.GilbertElliott, n)
		for from := 0; from < n; from++ {
			if from == self {
				continue
			}
			ge, err := faults.NewGilbertElliott(script.Loss,
				rand.New(rand.NewSource(chainSeed(script.Seed, from, self))))
			if err != nil {
				return nil, err
			}
			c.chains[from] = ge
		}
	}
	return c, nil
}

// Partitioned reports whether the from→self link is cut at local virtual
// time now (campaign time now+offset).
func (c *Chaos) Partitioned(now time.Duration, from int) bool {
	t := now + c.offset
	for _, w := range c.parts {
		if t < w.start {
			return false // windows are sorted and non-overlapping
		}
		if t < w.end {
			return w.islandOf[from] != w.islandOf[c.self]
		}
	}
	return false
}

// Plan decides one incoming frame's fate. Draw discipline is fixed per
// admitted frame — one chain advance (two draws) when loss is on, one
// jitter draw when jitter is on, two duplication draws when duplication
// is on — so runs differing only in schedule windows consume the streams
// identically.
func (c *Chaos) Plan(now time.Duration, from int) netsim.Perturbation {
	if c.Partitioned(now, from) {
		return netsim.Perturbation{Drop: true, Cause: stats.DropPartition}
	}
	if c.chains != nil && c.chains[from] != nil && c.chains[from].Lost() {
		return netsim.Perturbation{Drop: true, Cause: stats.DropLoss}
	}
	v := netsim.Perturbation{Delay: c.script.Delay.D()}
	if j := c.script.Jitter.D(); j > 0 {
		v.Delay += time.Duration(c.rng.Int63n(int64(j)))
	}
	if c.script.DupProb > 0 {
		dup := c.rng.Float64() < c.script.DupProb
		extra := c.script.Delay.D()
		if j := c.script.Jitter.D(); j > 0 {
			extra += time.Duration(c.rng.Int63n(int64(j)))
		}
		if dup {
			v.Dup, v.DupDelay = true, extra
		}
	}
	return v
}
