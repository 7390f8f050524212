package pushpull

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

type staticSource struct{ pts []geo.Point }

func (s *staticSource) Len() int { return len(s.pts) }
func (s *staticSource) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	if cap(dst) < len(s.pts) {
		dst = make([]geo.Point, len(s.pts))
	}
	dst = dst[:len(s.pts)]
	copy(dst, s.pts)
	return dst
}

type env struct {
	k      *sim.Kernel
	net    *netsim.Network
	reg    *data.Registry
	stores []*cache.Store
	ch     *node.Chassis
}

func newEnv(t *testing.T, n int) *env {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(21))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, nil, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := data.NewRegistry(n)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*cache.Store, n)
	for i := range stores {
		stores[i], err = cache.NewStore(10)
		if err != nil {
			t.Fatal(err)
		}
	}
	aud, err := consistency.NewAuditor(reg, 4*time.Minute, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := node.NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	return &env{k: k, net: net, reg: reg, stores: stores, ch: ch}
}

func (e *env) seed(t *testing.T, host int, item data.ItemID) {
	t.Helper()
	m, err := e.reg.Master(item)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.stores[host].Put(m.Current(), e.k.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestPushConfigValidate(t *testing.T) {
	if err := DefaultPushConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultPushConfig()
	bad.TTN = 0
	if bad.Validate() == nil {
		t.Error("zero TTN accepted")
	}
	bad = DefaultPushConfig()
	bad.QueryPatience = time.Second
	if bad.Validate() == nil {
		t.Error("patience below TTN accepted")
	}
	bad = DefaultPushConfig()
	bad.BroadcastTTL = 0
	if bad.Validate() == nil {
		t.Error("zero TTL accepted")
	}
}

func TestPullConfigValidate(t *testing.T) {
	if err := DefaultPullConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultPullConfig()
	bad.PollTimeout = 0
	if bad.Validate() == nil {
		t.Error("zero timeout accepted")
	}
}

func TestPushQueryWaitsForIR(t *testing.T) {
	e := newEnv(t, 4)
	p, err := NewPush(DefaultPushConfig(), e.ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(e.k); err != nil {
		t.Fatal(err)
	}
	e.seed(t, 0, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	// Not answered synchronously: the baseline waits for an IR.
	if e.ch.Answered() != 0 {
		t.Fatal("push answered before any IR")
	}
	e.k.RunUntil(5 * time.Minute) // at least one IR interval passes
	if e.ch.Answered() != 1 {
		t.Fatalf("push query unanswered after IR; reasons=%v", e.ch.FailReasons())
	}
	// Latency reflects the IR wait: a decent fraction of TTN.
	if got := e.ch.Latency.Max(); got < 500*time.Millisecond {
		t.Errorf("push latency %v suspiciously low for IR-wait semantics", got)
	}
}

func TestPushStaleCopyRefetchedOnIR(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	p.OnUpdate(e.k, 2) // master at v1; cached copy v0
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Minute)
	if e.ch.Answered() != 1 {
		t.Fatalf("query unanswered; reasons=%v", e.ch.FailReasons())
	}
	cp, ok := e.stores[0].Peek(2)
	if !ok || cp.Version != 1 {
		t.Errorf("copy after IR-triggered refetch = v%d, want v1", cp.Version)
	}
	if e.ch.AuditViolations() != 0 {
		t.Errorf("push strong answer stale: %d audit violations", e.ch.AuditViolations())
	}
}

func TestPushOwnerAnswersLocally(t *testing.T) {
	e := newEnv(t, 3)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	p.OnQuery(e.k, 1, 1, consistency.LevelStrong)
	if e.ch.Answered() != 1 {
		t.Fatal("owner query not local")
	}
}

func TestPushMissFetchesThenWaits(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	p.OnQuery(e.k, 0, 3, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Minute)
	if e.ch.Answered() != 1 {
		t.Fatalf("push miss unanswered; reasons=%v", e.ch.FailReasons())
	}
	if !e.stores[0].Contains(3) {
		t.Error("push miss did not cache the fetched copy")
	}
}

func TestPushIRTrafficFlowsEveryInterval(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	e.k.RunUntil(10 * time.Minute)
	// 4 sources x ~5 intervals: IR floods must be plentiful.
	if got := e.net.Traffic().Originated(protocol.KindIR); got < 12 {
		t.Errorf("IR originations = %d in 10min, want >= 12", got)
	}
}

func TestPullFreshCopyGetsAck(t *testing.T) {
	e := newEnv(t, 4)
	p, err := NewPull(DefaultPullConfig(), e.ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(e.k); err != nil {
		t.Fatal(err)
	}
	e.seed(t, 0, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("pull query unanswered; reasons=%v", e.ch.FailReasons())
	}
	if e.net.Traffic().Delivered(protocol.KindPullAck) == 0 {
		t.Error("fresh copy did not draw PULL_ACK")
	}
	if e.ch.AuditViolations() != 0 {
		t.Error("pull answer flagged")
	}
}

func TestPullStaleCopyGetsReply(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	p.OnUpdate(e.k, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatal("pull query unanswered")
	}
	cp, _ := e.stores[0].Peek(2)
	if cp.Version != 1 {
		t.Errorf("copy after PULL_REPLY = v%d, want v1", cp.Version)
	}
}

func TestPullMissGetsContent(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	p.OnQuery(e.k, 0, 2, consistency.LevelWeak)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("pull miss unanswered; reasons=%v", e.ch.FailReasons())
	}
	if !e.stores[0].Contains(2) {
		t.Error("pull miss did not cache")
	}
}

func TestPullFailsAcrossPartition(t *testing.T) {
	e := newEnv(t, 11) // owner of item 10 is 10 hops away (> TTL 8)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 10)
	p.OnQuery(e.k, 0, 10, consistency.LevelStrong)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Failed() != 1 {
		t.Fatal("poll beyond TTL did not fail")
	}
}

func TestPullFloodsPerQuery(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	for i := 0; i < 5; i++ {
		p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
		e.k.RunUntil(e.k.Now() + 5*time.Second)
	}
	if got := e.net.Traffic().Originated(protocol.KindPullPoll); got != 5 {
		t.Errorf("pull poll originations = %d, want 5 (one per query)", got)
	}
	// Each flood traverses the network: per-query transmissions are the
	// cost that dominates Fig 7's pull curve.
	if got := e.net.Traffic().Tx(protocol.KindPullPoll); got < 15 {
		t.Errorf("pull poll transmissions = %d, want >= 15 across 5 floods", got)
	}
}

func TestStrategiesRejectDoubleStart(t *testing.T) {
	e := newEnv(t, 3)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	if p.Start(e.k) == nil {
		t.Error("push double start accepted")
	}
	e2 := newEnv(t, 3)
	pl, _ := NewPull(DefaultPullConfig(), e2.ch)
	pl.Start(e2.k)
	if pl.Start(e2.k) == nil {
		t.Error("pull double start accepted")
	}
}

func TestPushIRRefreshesEvictedCopyForParkedQueries(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong) // parks until next IR
	// The copy vanishes while the query is parked (LRU pressure).
	e.stores[0].Remove(2)
	e.k.RunUntil(5 * time.Minute)
	if e.ch.Answered() != 1 {
		t.Fatalf("parked query over evicted copy unanswered; reasons=%v", e.ch.FailReasons())
	}
	if e.ch.AuditViolations() != 0 {
		t.Error("refetched answer flagged")
	}
}

func TestPushIgnoresIRForUncachedItemWithoutQueries(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPush(DefaultPushConfig(), e.ch)
	p.Start(e.k)
	// No cached copy, no parked queries: the IR must not trigger fetches.
	p.onIR(e.k, 0, protocol.Message{Kind: protocol.KindIR, Item: 2, Origin: 2, Version: 3})
	e.k.RunUntil(10 * time.Second)
	if got := e.net.Traffic().Originated(protocol.KindDataRequest); got != 0 {
		t.Errorf("IR for uncached item triggered %d fetches", got)
	}
}

func TestPushActiveSourceGatesIR(t *testing.T) {
	e := newEnv(t, 4)
	cfg := DefaultPushConfig()
	cfg.ActiveSource = func(host int) bool { return host == 0 }
	p, _ := NewPush(cfg, e.ch)
	p.Start(e.k)
	e.k.RunUntil(10 * time.Minute)
	// Only source 0 broadcasts: roughly 5 IR originations, not 20.
	got := e.net.Traffic().Originated(protocol.KindIR)
	if got == 0 || got > 8 {
		t.Errorf("IR originations = %d with one active source over 10min", got)
	}
}

func TestPullLateReplyIgnored(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(10 * time.Second) // answered; round closed
	if e.ch.Answered() != 1 {
		t.Fatal("setup failed")
	}
	// A duplicate/late ack for the same seq must not double-answer.
	p.onAck(e.k, 0, protocol.Message{Kind: protocol.KindPullAck, Item: 2, Origin: 2, Seq: 1})
	if e.ch.Answered() != 1 {
		t.Error("late ack double-answered")
	}
}

func TestPullAckForLostCopyFails(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 0, 2)
	p.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	// The copy vanishes while the poll is in flight; the ACK then has
	// nothing to validate.
	e.stores[0].Remove(2)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Failed() != 1 {
		t.Fatalf("ack over lost copy did not fail cleanly; answered=%d reasons=%v",
			e.ch.Answered(), e.ch.FailReasons())
	}
}

func TestPullNonOwnerIgnoresPoll(t *testing.T) {
	e := newEnv(t, 4)
	p, _ := NewPull(DefaultPullConfig(), e.ch)
	p.Start(e.k)
	e.seed(t, 1, 2) // node 1 caches item 2 but is NOT its owner
	before := e.net.Traffic().Originated(protocol.KindPullReply) +
		e.net.Traffic().Originated(protocol.KindPullAck)
	p.onPoll(e.k, 1, protocol.Message{Kind: protocol.KindPullPoll, Item: 2, Origin: 0, Seq: 9})
	after := e.net.Traffic().Originated(protocol.KindPullReply) +
		e.net.Traffic().Originated(protocol.KindPullAck)
	if after != before {
		t.Error("non-owner answered a pull poll")
	}
}
