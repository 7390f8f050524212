// Package cluster boots N in-process rpcc daemons on 127.0.0.1 UDP,
// drives each node's workload for a wall-clock duration, records every
// commit and served answer, and judges the run with the differential
// oracle's staleness envelopes (internal/oracle.JudgeLive) — the PR 5
// conformance gate graduated from simulation to real sockets.
//
// Protocol timers default to a scaled-down Table 1 (seconds instead of
// minutes, preserving the TTN:TTR:TTP ratios) so a ~10 s smoke run
// crosses several announcement and validation windows; envelopes scale
// with the timers and are inflated for real-network delay soundness.
package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/oracle"
	"github.com/manetlab/rpcc/internal/stats"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/wire"
)

// Config parameterises a loopback cluster run.
type Config struct {
	// N is the number of daemons (>= 2).
	N int
	// Strategy is one of the wire rpcc-* variants.
	Strategy string
	// Seed decorrelates the daemons' workload streams.
	Seed int64
	// Duration is the wall-clock run length.
	Duration time.Duration
	// Drain bounds each daemon's shutdown wait.
	Drain time.Duration
	// CacheNum is how many foreign items each node caches (capped at
	// N-1); node i caches items i+1 .. i+CacheNum (mod N).
	CacheNum int
	// QueryInterval / UpdateInterval are each node's workload means.
	QueryInterval  time.Duration
	UpdateInterval time.Duration
	// TTN / TTR / TTP / CoeffPeriod override the protocol timers
	// (zero keeps the scaled-down defaults below).
	TTN, TTR, TTP, CoeffPeriod time.Duration
	// Slack forgives in-flight answers at judging time.
	Slack time.Duration
	// Inflate widens every staleness envelope for real-network delay.
	Inflate time.Duration
	// Trace enables causal tracing: every daemon gets a collector
	// (region = node id), the per-daemon span sets merge into
	// Report.TraceSpans, and the run cross-checks the merged trace
	// against the measured latencies (Report.TraceErrors).
	Trace bool
	// Chaos, when non-nil, runs the cluster under the fault campaign:
	// every daemon gets the chaos shim, and the campaign's crash schedule
	// drives daemon crash/restart churn. Mutually exclusive with Trace (a
	// trace cross-checked under scripted loss would fail its own
	// decomposition identity).
	Chaos *faults.Config
	// BreakInflation deliberately judges a chaos run blind to the fault
	// schedule — no adversity windows, no restart epochs. It exists so
	// the CI gate can prove the fault-aware judge has teeth: the broken
	// variant must be caught DIVERGENT on the same ledgers a fault-aware
	// judge passes.
	BreakInflation bool
}

// DefaultConfig returns the wire-smoke shape: 5 nodes, 10 seconds,
// Table 1 timers scaled 60:1 (TTN 2 s, TTR 1.5 s, TTP 4 s).
func DefaultConfig() Config {
	return Config{
		N:              5,
		Strategy:       wire.StrategyRPCCSC,
		Seed:           1,
		Duration:       10 * time.Second,
		Drain:          2 * time.Second,
		CacheNum:       4,
		QueryInterval:  250 * time.Millisecond,
		UpdateInterval: time.Second,
		TTN:            2 * time.Second,
		TTR:            1500 * time.Millisecond,
		TTP:            4 * time.Second,
		CoeffPeriod:    time.Second,
		Slack:          time.Second,
		Inflate:        2 * time.Second,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("cluster: n %d must be >= 2", c.N)
	}
	if _, err := wire.ParseStrategy(c.Strategy); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("cluster: non-positive duration %v", c.Duration)
	}
	if c.CacheNum < 1 {
		return fmt.Errorf("cluster: cache num %d must be >= 1", c.CacheNum)
	}
	if c.QueryInterval <= 0 || c.UpdateInterval <= 0 {
		return fmt.Errorf("cluster: non-positive workload intervals")
	}
	if c.Slack < 0 || c.Inflate < 0 {
		return fmt.Errorf("cluster: negative slack or inflate")
	}
	if c.Chaos != nil {
		if c.Trace {
			return fmt.Errorf("cluster: chaos and trace modes are mutually exclusive")
		}
		if _, err := wire.NewChaos(c.Chaos, 0, c.N, 0); err != nil {
			return err
		}
	}
	if c.BreakInflation && c.Chaos == nil {
		return fmt.Errorf("cluster: break-inflation needs a chaos script to be blind to")
	}
	return nil
}

// coreConfig derives the engine configuration.
func (c Config) coreConfig() core.Config {
	cc := core.DefaultConfig()
	if c.TTN > 0 {
		cc.TTN = c.TTN
	}
	if c.TTR > 0 {
		cc.TTR = c.TTR
	}
	if c.TTP > 0 {
		cc.TTP = c.TTP
	}
	if c.CoeffPeriod > 0 {
		cc.CoeffPeriod = c.CoeffPeriod
	}
	return cc
}

// spec derives the oracle envelopes from the effective timers, the same
// shape the sim oracle uses for RPCC: SC answers come from an authority
// validated within TTR, DC additionally tolerates one TTP window of
// local reuse, WC is unaudited for staleness. Under chaos, the judge is
// additionally told the scheduled adversity — partition windows and
// daemon down/restart windows — unless BreakInflation blinds it.
func (c Config) spec(cc core.Config, windows []oracle.LiveWindow, restarts []oracle.LiveRestart) oracle.LiveSpec {
	spec := oracle.LiveSpec{
		Envelopes: map[consistency.Level]time.Duration{
			consistency.LevelStrong: cc.TTR,
			consistency.LevelDelta:  cc.TTP + cc.TTR,
		},
		Slack:   c.Slack,
		Inflate: c.Inflate,
	}
	if !c.BreakInflation {
		spec.Windows = windows
		spec.Restarts = restarts
	}
	return spec
}

// Report is the outcome of one cluster run.
type Report struct {
	N        int
	Strategy string
	Elapsed  time.Duration

	Issued   uint64
	Answered uint64
	Failed   uint64
	Commits  int
	Judged   int
	// AuditViolations sums the daemons' in-chassis audit counters. A
	// daemon has no commit ledger, so these are torn copies only.
	AuditViolations uint64

	TotalTx    uint64
	TotalBytes uint64

	DecodeErrors uint64
	ReadErrors   uint64
	StopErrors   []error

	// Restarts counts completed daemon cold-restarts; Drops sums wire
	// drop accounting by cause across every incarnation (chaos runs).
	Restarts int
	Drops    map[string]uint64

	Divergences []oracle.Divergence

	NodeSummaries []string

	// TraceSpans is the merged causal trace in canonical order (nil
	// unless Config.Trace). TraceErrors lists trace/latency cross-check
	// failures: every critical path must decompose exactly into its
	// segments' self times, and the answered-query roots must agree with
	// the chassis counters and the measured mean latency within the
	// clock-skew slack.
	TraceSpans  []ctrace.Span
	TraceErrors []string
}

// Clean reports a violation-free run with a clean shutdown.
func (r Report) Clean() bool {
	return len(r.Divergences) == 0 && len(r.StopErrors) == 0 && len(r.TraceErrors) == 0
}

// String renders the one-line verdict.
func (r Report) String() string {
	verdict := "CONFORMANT"
	if !r.Clean() {
		verdict = "DIVERGENT"
	}
	s := fmt.Sprintf("%s: %d nodes (%s) over %v: issued=%d answered=%d failed=%d commits=%d judged=%d tx=%d divergences=%d stop-errors=%d",
		verdict, r.N, r.Strategy, r.Elapsed.Round(time.Millisecond), r.Issued, r.Answered,
		r.Failed, r.Commits, r.Judged, r.TotalTx, len(r.Divergences), len(r.StopErrors))
	if r.Restarts > 0 {
		s += fmt.Sprintf(" restarts=%d", r.Restarts)
	}
	return s
}

// Run executes one loopback cluster end to end and judges it.
func Run(cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cc := cfg.coreConfig()

	// Bind every socket first (port 0 → kernel-assigned), so the full
	// peer table exists before any daemon is constructed.
	conns := make([]*net.UDPConn, cfg.N)
	peers := make(map[int]string, cfg.N)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for i := 0; i < cfg.N; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			closeAll()
			return Report{}, fmt.Errorf("cluster: bind node %d: %w", i, err)
		}
		conns[i] = conn
		peers[i] = conn.LocalAddr().String()
	}

	epoch := time.Now()
	rec := oracle.NewLiveRecorder(epoch)
	members := make([]*member, cfg.N)
	for i := range members {
		members[i] = &member{traffic: stats.NewTraffic()}
	}
	tracers := make([]*ctrace.Collector, cfg.N)

	// build assembles one daemon incarnation for slot i. The churn
	// controller reuses it for cold restarts: a resumed write counter, a
	// campaign-time offset for the chaos shim, and a generation-varied
	// seed (a restarted process does not replay its predecessor's RNG).
	build := func(i int, conn *net.UDPConn, resume data.Version, offset time.Duration, gen int) (*wire.Node, error) {
		m := members[i]
		return wire.NewNode(wire.NodeConfig{
			Self:             i,
			Nodes:            cfg.N,
			Peers:            peers,
			Conn:             conn,
			Seed:             cfg.Seed + int64(i)*1000003 + int64(gen)*97561,
			Strategy:         cfg.Strategy,
			Core:             cc,
			Placement:        wire.CyclicPlacement(i, cfg.N, cfg.CacheNum),
			QueryInterval:    cfg.QueryInterval,
			UpdateInterval:   cfg.UpdateInterval,
			Trace:            tracers[i],
			Chaos:            cfg.Chaos,
			ChaosOffset:      offset,
			ResumeOwnVersion: resume,
			OnAnswer:         rec.Answer,
			OnCommit: func(item data.ItemID, v data.Version, at time.Time) {
				m.lastVersion.Store(uint64(v))
				rec.Commit(item, v, at)
			},
		})
	}

	for i := 0; i < cfg.N; i++ {
		if cfg.Trace {
			tracers[i] = ctrace.NewCollector(i)
		}
		nd, err := build(i, conns[i], 0, 0, 0)
		if err != nil {
			closeAll()
			return Report{}, fmt.Errorf("cluster: build node %d: %w", i, err)
		}
		members[i].nd = nd
	}

	started := time.Now()
	for i, m := range members {
		if err := m.nd.Start(); err != nil {
			for j := 0; j <= i; j++ {
				members[j].nd.Stop(cfg.Drain)
			}
			return Report{}, fmt.Errorf("cluster: start node %d: %w", i, err)
		}
	}

	// Scripted daemon churn: the controller crashes and cold-restarts
	// members per the schedule while the run sleeps.
	var ctl *churn
	var ctlWG sync.WaitGroup
	stop := make(chan struct{})
	if cfg.Chaos != nil && len(cfg.Chaos.Crashes) > 0 {
		ctl = &churn{
			cfg: cfg, members: members, peers: peers,
			epoch: epoch, started: started, rebuild: build,
		}
		ctlWG.Add(1)
		go func() {
			defer ctlWG.Done()
			ctl.run(stop)
		}()
	}

	time.Sleep(cfg.Duration)
	close(stop)
	ctlWG.Wait()

	rep := Report{N: cfg.N, Strategy: cfg.Strategy}
	for _, m := range members {
		m.mu.Lock()
		if m.nd != nil {
			if err := m.nd.Stop(cfg.Drain); err != nil {
				rep.StopErrors = append(rep.StopErrors, err)
			}
			m.absorb()
		}
		m.mu.Unlock()
	}
	rep.Elapsed = time.Since(started)

	rep.Drops = make(map[string]uint64)
	for _, m := range members {
		rep.Issued += m.issued
		rep.Answered += m.answered
		rep.Failed += m.failed
		rep.AuditViolations += m.auditViolations
		rep.TotalTx += m.traffic.TotalTx()
		rep.TotalBytes += m.traffic.TotalBytes()
		rep.DecodeErrors += m.decodeErrs
		rep.ReadErrors += m.readErrs
		rep.Restarts += m.restarts
		rep.NodeSummaries = append(rep.NodeSummaries, m.summaries...)
		for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
			if v := m.traffic.TotalDroppedByCause(c); v > 0 {
				rep.Drops[c.String()] += v
			}
		}
	}

	// Assemble the judge's adversity: script partition windows (campaign
	// time shifted onto the recorder epoch) plus the observed churn
	// windows and restart completions.
	var windows []oracle.LiveWindow
	var restarts []oracle.LiveRestart
	if cfg.Chaos != nil {
		startOff := started.Sub(epoch)
		for _, p := range cfg.Chaos.Partitions {
			windows = append(windows, oracle.LiveWindow{
				Start: startOff + p.Start.D(), End: startOff + p.End.D(), Node: -1,
			})
		}
	}
	if ctl != nil {
		w, r, errs := ctl.results()
		windows = append(windows, w...)
		restarts = append(restarts, r...)
		rep.StopErrors = append(rep.StopErrors, errs...)
	}

	commits, answers := rec.Ledgers()
	rep.Commits = len(commits)
	rep.Judged = len(answers)
	divs, err := oracle.JudgeLive(commits, answers, cfg.spec(cc, windows, restarts))
	if err != nil {
		return rep, err
	}
	rep.Divergences = divs

	if cfg.Trace {
		// Trace mode never runs under churn (Validate forbids it), so
		// every member held exactly one incarnation and its collector and
		// latency histogram survive in the accumulators.
		sets := make([][]ctrace.Span, 0, cfg.N)
		var latSum time.Duration
		var latN uint64
		for i, m := range members {
			sets = append(sets, tracers[i].Export())
			a := m.answered
			if m.lat != nil {
				latSum += time.Duration(float64(m.lat.Mean()) * float64(a))
			}
			latN += a
		}
		rep.TraceSpans = ctrace.Merge(sets...)
		rep.TraceErrors = crossCheckTrace(rep.TraceSpans, rep.Answered, latSum, latN, cfg.Slack)
	}
	return rep, nil
}

// crossCheckTrace verifies the merged trace against the run's measured
// ground truth: (1) every critical path's segment self-times sum exactly
// to the path's end-to-end total — the decomposition identity that makes
// per-phase attribution trustworthy; (2) the answered-query roots match
// the chassis answer count; (3) the roots' mean duration matches the
// latency histograms' mean within the clock-skew slack (span endpoints
// and latency samples read the same per-daemon clock, so the residual is
// rounding, but cross-daemon skew gets the benefit of the doubt).
func crossCheckTrace(spans []ctrace.Span, answered uint64, latSum time.Duration, latN uint64, slack time.Duration) []string {
	var errs []string
	paths := ctrace.ExtractCriticalPaths(spans)
	var rootSum time.Duration
	var roots uint64
	for _, p := range paths {
		var sum int64
		for _, seg := range p.Segments {
			sum += seg.SelfNs
		}
		if sum != p.TotalNs {
			errs = append(errs, fmt.Sprintf("trace %x: critical-path self times sum to %d ns, root spans %d ns", p.Root.Trace, sum, p.TotalNs))
		}
		if p.Root.Phase == ctrace.PhaseQuery && !strings.HasPrefix(p.Root.Name, "failed:") && p.Root.Name != "query" {
			roots++
			rootSum += time.Duration(p.TotalNs)
		}
	}
	if roots != answered {
		errs = append(errs, fmt.Sprintf("trace has %d answered-query roots, chassis answered %d", roots, answered))
	}
	if latN > 0 && roots > 0 {
		traceMean := rootSum / time.Duration(roots)
		measMean := latSum / time.Duration(latN)
		diff := traceMean - measMean
		if diff < 0 {
			diff = -diff
		}
		if diff > slack {
			errs = append(errs, fmt.Sprintf("trace mean latency %v vs measured %v: gap exceeds slack %v", traceMean, measMean, slack))
		}
	}
	return errs
}
