package core

// Integration tests for the disconnection/reconnection cases of §4.5,
// driven end-to-end through the simulated network (with churn) rather
// than by calling handlers directly.

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/node"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// faultEnv is an env with a controllable churn process.
type faultEnv struct {
	*env
	churn *churn.Process
}

// newFaultEnv builds a started engine over an n-node chain with scripted
// (non-random) churn.
func newFaultEnv(t *testing.T, n int, cfg Config) *faultEnv {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(17))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	cp, err := churn.NewProcess(churn.Config{Disabled: true}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, cp, nil, stats.NewTraffic())
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
	eng, err := New(cfg, ch, Telemetry{Switches: cp.Switches})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(k); err != nil {
		t.Fatal(err)
	}
	return &faultEnv{
		env:   &env{k: k, net: net, reg: reg, stores: stores, ch: ch, eng: eng},
		churn: cp,
	}
}

// makeRelay wires host up as a live relay for item 0 (owner node 0).
func (e *faultEnv) makeRelay(t *testing.T, host int) {
	t.Helper()
	e.seedCache(t, host, 0)
	st := e.eng.itemState(host, 0)
	st.role = RoleRelay
	e.eng.workOf(st).lastRefreshed = e.k.Now()
	st.set(refreshedOnce | invHeard)
	st.invAt = e.k.Now()
	e.eng.addRelay(0, host)
}

func TestRelayReconnectionRepair(t *testing.T) {
	// §4.5 case 2: a relay disconnects, misses UPDATEs, and on hearing
	// the next INVALIDATION after reconnection compares VER_d with
	// LVER_d and repairs via GET_NEW/SEND_NEW. Coefficient demotion is
	// pinned off: this sterile network carries no background traffic, so
	// the eligibility criterion (correctly) would demote the idle relay.
	cfg := DefaultConfig()
	cfg.DemoteAfter = 1000
	e := newFaultEnv(t, 3, cfg)
	e.makeRelay(t, 1)

	if err := e.churn.ForceState(e.k, 1, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	// Two updates committed while the relay is gone (outage shorter than
	// the 3·TTN resignation deadline); pushes die at the down node.
	e.eng.OnUpdate(e.k, 0)
	e.k.RunUntil(e.k.Now() + 100*time.Second)
	e.eng.OnUpdate(e.k, 0)
	e.k.RunUntil(e.k.Now() + 100*time.Second)
	if cp, _ := e.stores[1].Peek(0); cp.Version != 0 {
		t.Fatalf("down relay advanced to v%d", cp.Version)
	}

	// Reconnect and wait for the next INVALIDATION round to repair.
	e.churn.ForceState(e.k, 1, churn.StateConnected)
	e.k.RunUntil(e.k.Now() + 150*time.Second)
	cp, ok := e.stores[1].Peek(0)
	if !ok || cp.Version != 2 {
		t.Fatalf("relay after reconnect = v%d, want v2", cp.Version)
	}
	if e.net.Traffic().Delivered(protocol.KindSendNew) == 0 {
		t.Error("repair did not use GET_NEW/SEND_NEW")
	}
}

func TestSourceFailureBlocksStrongReadsUntilReturn(t *testing.T) {
	// §4.5 case 1: with the source host down and no relays, strong
	// queries cannot be validated; they fail rather than serve possibly
	// stale data. After the source returns, strong reads flow again.
	e := newFaultEnv(t, 3, DefaultConfig())
	e.seedCache(t, 2, 0)
	if err := e.churn.ForceState(e.k, 0, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	e.eng.OnQuery(e.k, 2, 0, consistency.LevelStrong)
	e.k.RunUntil(e.k.Now() + 10*time.Second)
	if e.ch.Failed() != 1 {
		t.Fatalf("strong query with dead source: answered=%d failed=%d, want failure",
			e.ch.Answered(), e.ch.Failed())
	}
	// Weak queries keep working from the local cache throughout.
	e.eng.OnQuery(e.k, 2, 0, consistency.LevelWeak)
	if e.ch.Answered() != 1 {
		t.Fatal("weak query failed during source outage")
	}

	e.churn.ForceState(e.k, 0, churn.StateConnected)
	e.k.RunUntil(e.k.Now() + 5*time.Second)
	e.eng.OnQuery(e.k, 2, 0, consistency.LevelStrong)
	e.k.RunUntil(e.k.Now() + 10*time.Second)
	if e.ch.Answered() != 2 {
		t.Fatalf("strong query after source return unanswered (reasons=%v)", e.ch.FailReasons())
	}
}

func TestCandidateMissedApplyAckRetries(t *testing.T) {
	// §4.5 case 3: the candidate's APPLY reaches the source but the
	// candidate goes down before APPLY_ACK arrives. The source has added
	// it to the relay table; on the next INVALIDATION after reconnection
	// the candidate (still candidate) re-applies past RepairTimeout, or
	// is promoted directly by a pushed UPDATE.
	cfg := DefaultConfig()
	// Pin candidacy: this test exercises the lost-ACK repair, not the
	// coefficient criterion, so demotion is effectively disabled.
	cfg.DemoteAfter = 1000
	e := newFaultEnv(t, 3, cfg)
	e.seedCache(t, 1, 0)
	e.eng.itemState(1, 0).role = RoleCandidate

	// Deliver an INVALIDATION so the candidate APPLYs, then cut it off
	// before the ACK can arrive (ACK takes ~one hop delay).
	e.eng.onInvalidation(e.k, 1, protocol.Message{
		Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 0,
	})
	if err := e.churn.ForceState(e.k, 1, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	e.k.RunUntil(e.k.Now() + 30*time.Second)
	if e.eng.Role(1, 0) == RoleRelay {
		t.Fatal("node promoted while disconnected")
	}
	// The source believes node 1 is a relay already.
	if !e.eng.peers[0].hasRelay(1) {
		t.Fatal("source did not record the APPLY")
	}

	e.churn.ForceState(e.k, 1, churn.StateConnected)
	// Run long enough for RepairTimeout to lapse and the next TTN round
	// to trigger either a re-APPLY or an UPDATE-driven promotion.
	e.eng.OnUpdate(e.k, 0)
	e.k.RunUntil(e.k.Now() + 5*time.Minute)
	if got := e.eng.Role(1, 0); got != RoleRelay {
		t.Fatalf("role after reconnection = %v, want relay", got)
	}
}

func TestOwnerPrunesUnreachableRelayOnPush(t *testing.T) {
	// §4.5 case 3b: "the source host will remove the peer from its relay
	// peer table and will not send UPDATE message to it" once the MAC
	// layer discovers the disconnection — modelled as a reachability
	// check at push time.
	e := newFaultEnv(t, 3, DefaultConfig())
	e.makeRelay(t, 2)
	if err := e.churn.ForceState(e.k, 2, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	e.eng.OnUpdate(e.k, 0)
	e.eng.ttnTick(e.k, 0) // push round observes the dead relay
	if e.eng.peers[0].hasRelay(2) {
		t.Fatal("owner kept unreachable relay in table")
	}
}

func TestChurnStormSystemSurvives(t *testing.T) {
	// Sustained random churn: the system must keep answering queries,
	// never serve torn/future values, and keep query accounting exact.
	k := sim.NewKernel(sim.WithSeed(23))
	n := 12
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%4) * 180, Y: float64(i/4) * 180}
	}
	cp, err := churn.NewProcess(churn.Config{MeanUp: 2 * time.Minute, MeanDown: 20 * time.Second}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := data.NewRegistry(n)
	stores := make([]*cache.Store, n)
	for i := range stores {
		stores[i], _ = cache.NewStore(6)
	}
	aud, _ := consistency.NewAuditor(reg, 4*time.Minute, 5*time.Second)
	ch, err := node.NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(DefaultConfig(), ch, Telemetry{Switches: cp.Switches})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(k); err != nil {
		t.Fatal(err)
	}
	levels := []consistency.Level{consistency.LevelStrong, consistency.LevelDelta, consistency.LevelWeak}
	for i := 0; i < 300; i++ {
		i := i
		k.After(time.Duration(i)*7*time.Second, "q", func(kk *sim.Kernel) {
			host := i % n
			item := data.ItemID((i*5 + 1) % n)
			if int(item) == host {
				item = data.ItemID((host + 1) % n)
			}
			eng.OnQuery(kk, host, item, levels[i%3])
		})
		if i%8 == 0 {
			k.After(time.Duration(i)*7*time.Second, "u", func(kk *sim.Kernel) {
				eng.OnUpdate(kk, i%n)
			})
		}
	}
	k.RunUntil(40 * time.Minute)
	if ch.Answered() == 0 {
		t.Fatal("no queries answered under churn")
	}
	if ch.Answered()+ch.Failed() != ch.Issued() {
		t.Fatalf("query accounting leak: %d issued, %d answered, %d failed",
			ch.Issued(), ch.Answered(), ch.Failed())
	}
	if got := aud.Violations(consistency.ViolationTorn); got != 0 {
		t.Errorf("torn values under churn: %d", got)
	}
	if got := aud.Violations(consistency.ViolationFuture); got != 0 {
		t.Errorf("future values under churn: %d", got)
	}
}
