package cluster

import (
	"net"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/wire"
)

// TestClusterSmallRunConformant boots a real 3-daemon loopback cluster
// for ~1.5 s of wall time with aggressively scaled timers and requires a
// clean oracle verdict. This is the in-tree slice of the wire-smoke
// gate; cmd/wiretest runs the full 5/10-node shape.
func TestClusterSmallRunConformant(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock cluster run")
	}
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.CacheNum = 2
	cfg.Duration = 1500 * time.Millisecond
	cfg.Drain = time.Second
	cfg.QueryInterval = 100 * time.Millisecond
	cfg.UpdateInterval = 400 * time.Millisecond
	cfg.TTN = 500 * time.Millisecond
	cfg.TTR = 400 * time.Millisecond
	cfg.TTP = time.Second
	cfg.CoeffPeriod = 300 * time.Millisecond

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Answered == 0 {
		t.Fatal("vacuous run: no answers served")
	}
	if rep.Judged != int(rep.Answered) {
		t.Fatalf("judged %d answers but chassis served %d — the oracle missed some", rep.Judged, rep.Answered)
	}
	if !rep.Clean() {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %+v", d)
		}
		for _, e := range rep.StopErrors {
			t.Errorf("stop error: %v", e)
		}
		t.Fatal("cluster run diverged")
	}
	if rep.DecodeErrors != 0 {
		t.Fatalf("decode errors on a clean loopback: %d", rep.DecodeErrors)
	}
	// A daemon's registry never hears a foreign commit, so its chassis
	// must not judge ledger rules: with it as ledger, nearly every correct
	// answer here counted as future-version.
	if rep.AuditViolations != 0 {
		t.Fatalf("daemons' own auditors flagged %d of %d answers on a conformant run", rep.AuditViolations, rep.Answered)
	}
}

func TestClusterConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutate := map[string]func(*Config){
		"one node":         func(c *Config) { c.N = 1 },
		"bad strategy":     func(c *Config) { c.Strategy = "push" },
		"zero duration":    func(c *Config) { c.Duration = 0 },
		"zero cache":       func(c *Config) { c.CacheNum = 0 },
		"zero query":       func(c *Config) { c.QueryInterval = 0 },
		"negative slack":   func(c *Config) { c.Slack = -1 },
		"negative inflate": func(c *Config) { c.Inflate = -1 },
	}
	for name, f := range mutate {
		c := DefaultConfig()
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// bootPair builds a 2-daemon loopback pair with no internal workload:
// node 0 is driven externally through Node.Query and node 1 owns item 1.
func bootPair(b *testing.B, answered chan<- data.Copy) (*wire.Node, func()) {
	b.Helper()
	conns := make([]*net.UDPConn, 2)
	peers := make(map[int]string, 2)
	for i := range conns {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = conn
		peers[i] = conn.LocalAddr().String()
	}
	cc := core.DefaultConfig()
	nodes := make([]*wire.Node, 2)
	for i := range nodes {
		cfg := wire.NodeConfig{
			Self: i, Nodes: 2, Peers: peers, Conn: conns[i],
			Seed: int64(i + 1), Strategy: wire.StrategyRPCCSC, Core: cc,
			Placement: []data.ItemID{data.ItemID(1 - i)},
		}
		if i == 0 && answered != nil {
			cfg.OnAnswer = func(nd int, item data.ItemID, level consistency.Level, served data.Copy, at time.Time) {
				answered <- served
			}
		}
		nd, err := wire.NewNode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		if err := nd.Start(); err != nil {
			b.Fatal(err)
		}
	}
	stop := func() {
		for _, nd := range nodes {
			nd.Stop(2 * time.Second)
		}
	}
	return nodes[0], stop
}

// BenchmarkLoopbackQueryRTT measures the end-to-end latency of one SC
// query over real UDP loopback: inject at node 0, POLL node 1 (the
// source), answer back. One sample per iteration, serially — this is a
// round-trip benchmark, not a throughput benchmark.
func BenchmarkLoopbackQueryRTT(b *testing.B) {
	answered := make(chan data.Copy, 1)
	querier, stop := bootPair(b, answered)
	defer stop()

	// Warm once so relay/validation state settles before timing.
	querier.Query(1, consistency.LevelStrong)
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		b.Fatal("warmup query never answered")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !querier.Query(1, consistency.LevelStrong) {
			b.Fatal("inject refused")
		}
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			b.Fatal("query never answered")
		}
	}
}

// TestClusterRestartRejoin crashes one daemon mid-run and cold-restarts
// it: the run must stay CONFORMANT (the fault-aware judge honours the
// down window, the restart epoch, and the watermark reset), the restarted
// daemon must serve answers again, and the resumed write counter must
// keep the commit ledger monotone.
func TestClusterRestartRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock cluster run")
	}
	cfg := DefaultConfig()
	cfg.N = 3
	cfg.CacheNum = 2
	cfg.Strategy = wire.StrategyRPCCDC
	cfg.Duration = 4 * time.Second
	cfg.Drain = time.Second
	cfg.QueryInterval = 100 * time.Millisecond
	cfg.UpdateInterval = 400 * time.Millisecond
	cfg.TTN = 500 * time.Millisecond
	cfg.TTR = 400 * time.Millisecond
	cfg.TTP = time.Second
	cfg.CoeffPeriod = 300 * time.Millisecond
	cfg.Chaos = &wire.Script{
		Seed: cfg.Seed,
		Crashes: []wire.ScriptCrash{
			{At: wire.Duration(time.Second), Node: 1, RestartAfter: wire.Duration(500 * time.Millisecond)},
		},
	}

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	if rep.Answered == 0 {
		t.Fatal("vacuous run: no answers served")
	}
	if !rep.Clean() {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %+v", d)
		}
		for _, e := range rep.StopErrors {
			t.Errorf("stop error: %v", e)
		}
		t.Fatal("restart-rejoin run diverged")
	}
	// Two incarnations of node 1 → 4 summaries across the cluster.
	if len(rep.NodeSummaries) != 4 {
		t.Fatalf("want 4 incarnation summaries, got %d: %v", len(rep.NodeSummaries), rep.NodeSummaries)
	}
}

// TestClusterChaosValidation covers the chaos-specific config rules.
func TestClusterChaosValidation(t *testing.T) {
	c := DefaultConfig()
	c.Chaos = wire.DemoScript(c.N, c.Duration, c.Seed)
	if err := c.Validate(); err != nil {
		t.Fatalf("chaos config rejected: %v", err)
	}
	c.Trace = true
	if err := c.Validate(); err == nil {
		t.Fatal("chaos+trace accepted")
	}
	c = DefaultConfig()
	c.BreakInflation = true
	if err := c.Validate(); err == nil {
		t.Fatal("break-inflation without chaos accepted")
	}
	c = DefaultConfig()
	c.Chaos = &wire.Script{Seed: 1, Crashes: []wire.ScriptCrash{{At: wire.Duration(time.Second), Node: 99}}}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range crash node accepted")
	}
}

// TestNodeStopDrainDeadlineUnreachablePeer builds a daemon whose only
// peer is a black hole (bound socket, no daemon), issues SC queries that
// can never be answered, and verifies Stop honours the drain deadline
// instead of hanging on the unreachable peer.
func TestNodeStopDrainDeadlineUnreachablePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock daemon run")
	}
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	peers := map[int]string{0: conn.LocalAddr().String(), 1: hole.LocalAddr().String()}
	nd, err := wire.NewNode(wire.NodeConfig{
		Self: 0, Nodes: 2, Peers: peers, Conn: conn,
		Seed: 1, Strategy: wire.StrategyRPCCSC, Core: core.DefaultConfig(),
		Placement: []data.ItemID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		nd.Query(1, consistency.LevelStrong)
	}
	time.Sleep(100 * time.Millisecond)

	begun := time.Now()
	if err := nd.Stop(500 * time.Millisecond); err != nil {
		t.Fatalf("stop with unreachable peer: %v", err)
	}
	if took := time.Since(begun); took > 3*time.Second {
		t.Fatalf("stop took %v, drain deadline not honoured", took)
	}
	if nd.Chassis().Issued() == 0 {
		t.Fatal("queries never issued")
	}
}
