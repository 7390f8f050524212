package core

import (
	"slices"
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

// staticSource pins nodes on a 200m chain (radio range 250m: adjacent
// nodes only).
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
	eng    *Engine
}

// newEnv builds a started RPCC engine over an n-node chain.
func newEnv(t *testing.T, n int, cfg Config) *env {
	t.Helper()
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	return newEnvAt(t, pts, cfg)
}

// newEnvAt builds a started RPCC engine over nodes pinned at pts.
func newEnvAt(t *testing.T, pts []geo.Point, cfg Config) *env {
	t.Helper()
	n := len(pts)
	k := sim.NewKernel(sim.WithSeed(9))
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
	aud, err := consistency.NewAuditor(reg, cfg.TTP, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := node.NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, ch, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(k); err != nil {
		t.Fatal(err)
	}
	return &env{k: k, net: net, reg: reg, stores: stores, ch: ch, eng: eng}
}

// seedCache installs the current master copy of item into host's store and
// creates the protocol state, marking it validated at the current time.
func (e *env) seedCache(t *testing.T, host int, item data.ItemID) {
	t.Helper()
	m, err := e.reg.Master(item)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.stores[host].Put(m.Current(), e.k.Now()); err != nil {
		t.Fatal(err)
	}
	st := e.eng.itemState(host, item)
	st.lastValidated = e.k.Now()
	st.set(validatedOnce)
}

// hasRelay reports whether r is registered in ps's relay table.
func (ps *peerState) hasRelay(r int) bool {
	_, ok := slices.BinarySearch(ps.relays, int32(r))
	return ok
}

func TestConfigValidateTable(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"zero inv ttl", func(c *Config) { c.InvalidationTTL = 0 }, false},
		{"zero ttn", func(c *Config) { c.TTN = 0 }, false},
		{"ttr above ttn", func(c *Config) { c.TTR = 3 * time.Minute }, false},
		{"fallback below poll ttl", func(c *Config) { c.PollFallbackTTL = 1 }, false},
		{"zero poll timeout", func(c *Config) { c.PollTimeout = 0 }, false},
		{"omega out of range", func(c *Config) { c.Omega = 1.5 }, false},
		{"zero muCAR", func(c *Config) { c.MuCAR = 0 }, false},
		{"muCS above one", func(c *Config) { c.MuCS = 1.5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{
		RoleNone: "none", RoleCache: "cache", RoleCandidate: "candidate", RoleRelay: "relay",
	} {
		if got := r.String(); got != want {
			t.Errorf("Role(%d).String = %q, want %q", r, got, want)
		}
	}
}

func TestOwnerAnswersLocally(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.eng.OnQuery(e.k, 1, 1, consistency.LevelStrong)
	if e.ch.Answered() != 1 {
		t.Fatalf("owner query not answered immediately (answered=%d)", e.ch.Answered())
	}
	if e.ch.Latency.Max() != 0 {
		t.Errorf("owner query latency = %v, want 0", e.ch.Latency.Max())
	}
	if e.ch.AuditViolations() != 0 {
		t.Error("owner answer violated consistency")
	}
}

func TestWeakQueryHitAnswersImmediately(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 3)
	e.eng.OnQuery(e.k, 0, 3, consistency.LevelWeak)
	if e.ch.Answered() != 1 {
		t.Fatal("weak hit not answered synchronously")
	}
	if got := e.net.Traffic().TotalTx(); got != 0 {
		t.Errorf("weak hit transmitted %d messages", got)
	}
}

func TestWeakQueryMissFetches(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.eng.OnQuery(e.k, 0, 3, consistency.LevelWeak)
	e.k.RunUntil(5 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("miss not answered (failed=%d, reasons=%v)", e.ch.Failed(), e.ch.FailReasons())
	}
	if !e.stores[0].Contains(3) {
		t.Error("fetched copy not cached (placement substrate broken)")
	}
	if e.eng.Role(0, 3) != RoleCache {
		t.Errorf("role after fetch = %v, want cache", e.eng.Role(0, 3))
	}
}

func TestDeltaQueryWithinTTPAnswersLocally(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2)
	e.eng.OnQuery(e.k, 0, 2, consistency.LevelDelta)
	if e.ch.Answered() != 1 {
		t.Fatal("delta hit within TTP not answered synchronously")
	}
}

func TestDeltaQueryAfterTTPPolls(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 4, cfg)
	e.seedCache(t, 0, 2)
	// Let TTP expire: advance past 4 minutes without revalidation.
	e.k.RunUntil(cfg.TTP + time.Second)
	before := e.net.Traffic().Originated(protocol.KindPoll)
	e.eng.OnQuery(e.k, 0, 2, consistency.LevelDelta)
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	if got := e.net.Traffic().Originated(protocol.KindPoll) - before; got == 0 {
		t.Fatal("expired-TTP delta query did not poll")
	}
	if e.ch.Answered() != 1 {
		t.Fatalf("delta query unanswered; reasons=%v", e.ch.FailReasons())
	}
}

func TestStrongQueryPollsAndSourceAnswers(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2) // owner node 2, two hops: inside the first ring
	e.eng.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("strong query unanswered; reasons=%v", e.ch.FailReasons())
	}
	if e.ch.AuditViolations() != 0 {
		t.Errorf("strong answer stale: %d audit violations", e.ch.AuditViolations())
	}
	if e.net.Traffic().Delivered(protocol.KindPollAckA) == 0 {
		t.Error("expected POLL_ACK_A from source for an up-to-date copy")
	}
}

func TestStrongQueryStaleCopyGetsAckB(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 0, 2)
	// Source updates twice; cached copy v0 is stale.
	e.eng.OnUpdate(e.k, 2)
	e.eng.OnUpdate(e.k, 2)
	e.eng.OnQuery(e.k, 0, 2, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("strong query unanswered; reasons=%v", e.ch.FailReasons())
	}
	if e.net.Traffic().Delivered(protocol.KindPollAckB) == 0 {
		t.Error("stale copy should draw POLL_ACK_B")
	}
	cp, ok := e.stores[0].Peek(2)
	if !ok || cp.Version != 2 {
		t.Errorf("copy after ACK_B = v%d, want v2", cp.Version)
	}
	if e.ch.AuditViolations() != 0 {
		t.Error("refreshed strong answer still flagged stale")
	}
}

func TestStrongQueryFallbackRing(t *testing.T) {
	// Owner 5 hops away: the first TTL-3 ring cannot reach it and there
	// are no relays, so the fallback TTL-8 ring must answer.
	e := newEnv(t, 6, DefaultConfig())
	e.seedCache(t, 0, 5)
	e.eng.OnQuery(e.k, 0, 5, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("fallback poll failed; reasons=%v", e.ch.FailReasons())
	}
	// Latency must show the escalation delay.
	if e.ch.Latency.Max() < DefaultConfig().PollTimeout {
		t.Errorf("latency %v below one poll timeout; escalation did not happen", e.ch.Latency.Max())
	}
}

func TestStrongQueryFailsAcrossPartition(t *testing.T) {
	// 11-node chain: owner at node 10 is 10 hops away, beyond even the
	// TTL-8 fallback, and nobody else holds the item.
	e := newEnv(t, 11, DefaultConfig())
	e.seedCache(t, 0, 10)
	e.eng.OnQuery(e.k, 0, 10, consistency.LevelStrong)
	e.k.RunUntil(10 * time.Second)
	if e.ch.Failed() != 1 {
		t.Fatalf("unreachable-owner strong query did not fail (answered=%d)", e.ch.Answered())
	}
}

// TestFixedTTNIntervalConstant: every source floods INVALIDATION once
// per TTN, first at a stagger inside [0, TTN), so over ten intervals
// each of the three sources floods exactly ten times — quiet items
// included.
func TestFixedTTNIntervalConstant(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 3, cfg)
	e.k.RunUntil(10*cfg.TTN - time.Nanosecond)
	if got := e.net.Traffic().Originated(protocol.KindInvalidation); got != 30 {
		t.Fatalf("INVALIDATION originations over 10×TTN = %d, want 30", got)
	}
}

func TestCandidatePromotionViaInvalidation(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 2, 0) // node 2 caches item 0 (owner node 0, 2 hops < TTL 3)
	e.eng.itemState(2, 0).role = RoleCandidate
	// Drive one TTN tick at the owner and let the handshake complete.
	e.eng.ttnTick(e.k, 0)
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	if got := e.eng.Role(2, 0); got != RoleRelay {
		t.Fatalf("candidate role after INVALIDATION+APPLY = %v, want relay", got)
	}
	if e.eng.RelayCountFor(0) != 1 {
		t.Errorf("owner relay table size = %d, want 1", e.eng.RelayCountFor(0))
	}
	if e.net.Traffic().Delivered(protocol.KindApply) == 0 ||
		e.net.Traffic().Delivered(protocol.KindApplyAck) == 0 {
		t.Error("APPLY/APPLY_ACK handshake missing from traffic")
	}
}

func TestRelayAnswersPollLocally(t *testing.T) {
	// Node 1 is a relay for item 0 with a fresh TTR; node 2 polls. The
	// relay (1 hop) answers before the owner (2 hops).
	e := newEnv(t, 4, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay
	e.eng.workOf(st).lastRefreshed = e.k.Now()
	st.set(refreshedOnce)
	e.seedCache(t, 2, 0)
	e.eng.OnQuery(e.k, 2, 0, consistency.LevelStrong)
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	if e.ch.Answered() != 1 {
		t.Fatalf("poll to relay unanswered; reasons=%v", e.ch.FailReasons())
	}
}

// TestRelayPollQueueIsBoundedFIFO: a stale relay holds at most 64 polls,
// dropping the oldest first, and answers the rest in arrival order on the
// next refresh; every held entry goes back to the engine's pool when it
// is answered or dropped, or when its state is.
func TestRelayPollQueueIsBoundedFIFO(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay
	hold := func(first, last uint64) {
		for seq := first; seq <= last; seq++ {
			e.eng.onPoll(e.k, 1, protocol.Message{Kind: protocol.KindPoll, Item: 0, Origin: 2, Seq: seq})
		}
	}
	live := func() int {
		a := e.eng.heldPolls.Audit("core.heldPoll")
		if a.Doubled {
			t.Fatal("a held poll was given back twice")
		}
		return a.Live
	}
	hold(1, 70)
	var seqs, want []uint64
	for p := e.eng.peekWork(st).head; p != nil; p = p.next {
		seqs = append(seqs, p.seq)
	}
	for seq := uint64(7); seq <= 70; seq++ {
		want = append(want, seq)
	}
	if !slices.Equal(seqs, want) || e.eng.peekWork(st).held != 64 || live() != 64 {
		t.Fatalf("queue holds %v (count %d, %d live), want polls 7..70 in order", seqs, e.eng.peekWork(st).held, live())
	}
	before := e.net.Traffic().Originated(protocol.KindPollAckA)
	e.eng.onInvalidation(e.k, 1, protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 0})
	if got := e.net.Traffic().Originated(protocol.KindPollAckA) - before; got != 64 {
		t.Errorf("refresh answered %d held polls, want 64", got)
	}
	if n := live(); n != 0 {
		t.Errorf("%d held polls still out of the pool after the flush", n)
	}
	st.unset(refreshedOnce) // stale again
	hold(100, 109)
	if n := live(); n != 10 {
		t.Fatalf("%d polls held by the stale relay, want 10", n)
	}
	e.eng.dropItemState(e.k, 1, 0)
	if n := live(); n != 0 {
		t.Errorf("%d held polls still out of the pool after their state was dropped", n)
	}
}

func TestRelayWithExpiredTTRQueuesPoll(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 3, cfg)
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay
	// TTR never refreshed: expired. Deliver a POLL directly.
	e.eng.onPoll(e.k, 1, protocol.Message{
		Kind: protocol.KindPoll, Item: 0, Origin: 2, Version: 0, Seq: 77,
	})
	if n := e.eng.peekWork(st).held; n != 1 {
		t.Fatalf("pending polls = %d, want 1 (stale relay must wait)", n)
	}
	// An INVALIDATION confirming the version flushes the queue.
	e.eng.onInvalidation(e.k, 1, protocol.Message{
		Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 0,
	})
	if e.eng.peekWork(st).held != 0 {
		t.Fatal("pending polls not flushed on refresh")
	}
	e.k.RunUntil(e.k.Now() + time.Second)
	if e.net.Traffic().Originated(protocol.KindPollAckA) == 0 {
		t.Error("flushed poll did not produce POLL_ACK_A")
	}
}

func TestRelayRepairsWithGetNew(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay
	// Source moves to v2 while the relay holds v0.
	e.eng.OnUpdate(e.k, 0)
	e.eng.OnUpdate(e.k, 0)
	e.eng.onInvalidation(e.k, 1, protocol.Message{
		Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 2,
	})
	if !st.is(getNewPending) {
		t.Fatal("stale relay did not issue GET_NEW")
	}
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	cp, ok := e.stores[1].Peek(0)
	if !ok || cp.Version != 2 {
		t.Fatalf("relay copy after repair = v%d, want v2", cp.Version)
	}
	if st.is(getNewPending) {
		t.Error("getNewPending not cleared after SEND_NEW")
	}
	if !e.eng.ttrValid(e.k, st) {
		t.Error("TTR not refreshed after SEND_NEW")
	}
}

func TestUpdatePushAtTTNTick(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	e.eng.itemState(1, 0).role = RoleRelay
	e.eng.addRelay(0, 1)
	e.eng.OnUpdate(e.k, 0) // v1 committed
	e.eng.ttnTick(e.k, 0)  // push interval
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	cp, ok := e.stores[1].Peek(0)
	if !ok || cp.Version != 1 {
		t.Fatalf("relay copy after UPDATE push = v%d, want v1", cp.Version)
	}
	if e.net.Traffic().Delivered(protocol.KindUpdate) == 0 {
		t.Error("no UPDATE delivered")
	}
}

func TestCacheNodeReceivingUpdateResendsCancel(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	// Node 1 is a plain cache node, but the owner believes it is a relay
	// (missed CANCEL) and pushes an UPDATE.
	m, _ := e.reg.Master(0)
	e.reg.Commit(0, e.k.Now())
	cur := m.Current()
	e.eng.onUpdate(e.k, 1, protocol.Message{
		Kind: protocol.KindUpdate, Item: 0, Origin: 0, Version: cur.Version, Copy: cur,
	})
	e.k.RunUntil(e.k.Now() + time.Second)
	if e.net.Traffic().Originated(protocol.KindCancel) == 0 {
		t.Error("cache node did not re-send CANCEL")
	}
	cp, _ := e.stores[1].Peek(0)
	if cp.Version != cur.Version {
		t.Error("cache node discarded pushed content")
	}
}

func TestCandidatePromotedByUpdate(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleCandidate
	m, _ := e.reg.Master(0)
	e.reg.Commit(0, e.k.Now())
	cur := m.Current()
	e.eng.onUpdate(e.k, 1, protocol.Message{
		Kind: protocol.KindUpdate, Item: 0, Origin: 0, Version: cur.Version, Copy: cur,
	})
	if st.role != RoleRelay {
		t.Fatalf("candidate receiving UPDATE = %v, want relay (missed APPLY_ACK case)", st.role)
	}
}

func TestDemotionSendsCancel(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	st := e.eng.itemState(1, 0)
	st.role = RoleRelay
	e.eng.addRelay(0, 1)
	// A single failing window is tolerated (hysteresis), then demotion
	// after DemoteAfter consecutive failures.
	e.eng.coeffTick(e.k, 1)
	if st.role != RoleRelay {
		t.Fatalf("relay demoted after one failing window despite hysteresis")
	}
	for i := 1; i < DefaultConfig().DemoteAfter; i++ {
		e.eng.coeffTick(e.k, 1)
	}
	if st.role != RoleCache {
		t.Fatalf("role after %d failing windows = %v, want cache", DefaultConfig().DemoteAfter, st.role)
	}
	e.k.RunUntil(e.k.Now() + 2*time.Second)
	if e.eng.peers[0].hasRelay(1) {
		t.Error("owner kept demoted relay in table after CANCEL")
	}
}

func TestEvictionCancelsRelayRole(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	small, err := cache.NewStore(1)
	if err != nil {
		t.Fatal(err)
	}
	e.stores[1] = small
	e.ch.Stores[1] = small
	e.seedCache(t, 1, 0)
	e.eng.itemState(1, 0).role = RoleRelay
	e.eng.addRelay(0, 1)
	// Caching another item evicts item 0 (capacity 1).
	m2, _ := e.reg.Master(2)
	e.eng.putCopy(e.k, 1, m2.Current())
	if e.eng.Role(1, 0) != RoleNone {
		t.Fatalf("evicted item still has role %v", e.eng.Role(1, 0))
	}
	e.k.RunUntil(e.k.Now() + 2*time.Second)
	if e.eng.peers[0].hasRelay(1) {
		t.Error("owner kept relay whose copy was evicted")
	}
}

func TestCoeffTickPromotesBusyNode(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	e.seedCache(t, 1, 0)
	// Two ticks: baseline, then a busy window (simulated deliveries).
	e.eng.coeffTick(e.k, 1)
	e.eng.deliveries[1] += 600
	e.eng.coeffTick(e.k, 1)
	if got := e.eng.Role(1, 0); got != RoleCandidate {
		t.Fatalf("busy node role = %v, want candidate (tracker: %v)", got, e.eng.Tracker(1))
	}
}

func TestRelayCountAggregates(t *testing.T) {
	e := newEnv(t, 4, DefaultConfig())
	e.eng.addRelay(0, 1)
	e.eng.addRelay(0, 2)
	e.eng.addRelay(3, 2)
	if got := e.eng.RelayCount(); got != 3 {
		t.Errorf("RelayCount = %d, want 3", got)
	}
	if got := e.eng.RelayCountFor(0); got != 2 {
		t.Errorf("RelayCountFor(0) = %d, want 2", got)
	}
}

func TestStartTwiceFails(t *testing.T) {
	e := newEnv(t, 3, DefaultConfig())
	if err := e.eng.Start(e.k); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestFullSystemSmoke(t *testing.T) {
	// A 10-node chain under continuous load for 20 simulated minutes:
	// queries across all levels must be answered, audited, and never
	// produce torn or future values.
	e := newEnv(t, 10, DefaultConfig())
	levels := []consistency.Level{consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak}
	for i := 0; i < 200; i++ {
		i := i
		e.k.After(time.Duration(i)*5*time.Second, "test.query", func(kk *sim.Kernel) {
			host := i % 10
			item := data.ItemID((i + 3) % 10)
			if int(item) == host {
				item = data.ItemID((host + 1) % 10)
			}
			e.eng.OnQuery(kk, host, item, levels[i%3])
		})
		if i%10 == 0 {
			e.k.After(time.Duration(i)*5*time.Second, "test.update", func(kk *sim.Kernel) {
				e.eng.OnUpdate(kk, i%10)
			})
		}
	}
	e.k.RunUntil(25 * time.Minute)
	if e.ch.Answered() == 0 {
		t.Fatal("no queries answered")
	}
	answeredPlusFailed := e.ch.Answered() + e.ch.Failed()
	if answeredPlusFailed != e.ch.Issued() {
		t.Errorf("query accounting leak: issued=%d answered=%d failed=%d",
			e.ch.Issued(), e.ch.Answered(), e.ch.Failed())
	}
	if got := e.ch.Auditor.Violations(consistency.ViolationTorn); got != 0 {
		t.Errorf("torn answers: %d", got)
	}
	if got := e.ch.Auditor.Violations(consistency.ViolationFuture); got != 0 {
		t.Errorf("future answers: %d", got)
	}
}

// TestPollEscalationUnderRelayBlackout severs every link of the learned
// relay and drives one strong query through the full escalation ladder:
// the stage-0 direct poll dies on the cut (drop cause "partition"), the
// TTL-2 ring finds no authority, and the TTL-8 fallback reaches the owner
// over the bypass path. The silent relay must be forgotten exactly once.
func TestPollEscalationUnderRelayBlackout(t *testing.T) {
	// A 200m chain 0-1-2-3 with the relay (node 4) hanging off the
	// querier as a stub: severing it leaves the owner reachable over the
	// chain — three hops, beyond the TTL-2 ring but inside the TTL-8
	// fallback.
	//
	//   0 --- 1 --- 2 --- 3      chain, 200m spacing
	//                     |
	//                     4      relay stub at (600, 200)
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0},
		{X: 600, Y: 200},
	}
	e := newEnvAt(t, pts, DefaultConfig())
	e.net.SetLinkFilter(func(from, to int) bool { return from == 4 || to == 4 })

	// Node 4 is an established relay for item 0, and the querier at node
	// 3 has learned it from an earlier ack.
	e.seedCache(t, 4, 0)
	relay := e.eng.itemState(4, 0)
	relay.role = RoleRelay
	e.eng.workOf(relay).lastRefreshed = e.k.Now()
	relay.set(refreshedOnce)
	e.seedCache(t, 3, 0)
	e.eng.itemState(3, 0).knownRelay = 4

	e.eng.OnQuery(e.k, 3, 0, consistency.LevelStrong)
	e.k.RunUntil(5 * time.Second)

	if e.ch.Answered() != 1 {
		t.Fatalf("query unanswered across the blackout; reasons=%v", e.ch.FailReasons())
	}
	direct, ring, fallback, forgets := e.eng.PollStats()
	if direct != 1 || ring != 1 || fallback != 1 {
		t.Errorf("escalation ladder = direct:%d ring:%d fallback:%d, want 1:1:1", direct, ring, fallback)
	}
	if forgets != 1 {
		t.Errorf("relayForgets = %d, want exactly 1 for the one silent relay", forgets)
	}
	// The dead relay stays forgotten: the owner's ack alone is not
	// proximity evidence (no recent INVALIDATION heard), so nothing is
	// re-learned and no second forget can ever fire.
	if got := e.eng.itemState(3, 0).knownRelay; got != -1 {
		t.Errorf("knownRelay after fallback = %d, want -1", got)
	}
	if e.net.Traffic().DroppedByCause(protocol.KindPoll, stats.DropPartition) == 0 {
		t.Error("stage-0 poll should be accounted as a partition drop")
	}
}
