package node

import (
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// staticSource pins nodes on a 200m-spaced chain (radio range 250m).
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

// fetchFunc adapts a function to FetchDone.
type fetchFunc func(k *sim.Kernel, c data.Copy, from int, ok bool)

func (f fetchFunc) FetchDone(k *sim.Kernel, c data.Copy, from int, ok bool) { f(k, c, from, ok) }

type env struct {
	k      *sim.Kernel
	net    *netsim.Network
	reg    *data.Registry
	stores []*cache.Store
	ch     *Chassis
}

func newEnv(t *testing.T, n int) *env {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(3))
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
		s, err := cache.NewStore(10)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	aud, err := consistency.NewAuditor(reg, 4*time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	// Route fetch messages for every node.
	for i := 0; i < n; i++ {
		if err := net.SetReceiver(i, func(kk *sim.Kernel, nd int, msg protocol.Message, _ netsim.Meta) {
			switch msg.Kind {
			case protocol.KindDataRequest:
				ch.HandleDataRequest(kk, nd, msg)
			case protocol.KindDataReply:
				ch.HandleDataReply(kk, nd, msg)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return &env{k: k, net: net, reg: reg, stores: stores, ch: ch}
}

func TestNewChassisValidation(t *testing.T) {
	e := newEnv(t, 3)
	if _, err := NewChassis(nil, e.reg, e.stores, stats.NewLatency(), e.ch.Auditor); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := NewChassis(e.net, e.reg, e.stores[:1], stats.NewLatency(), e.ch.Auditor); err == nil {
		t.Error("short stores accepted")
	}
}

func TestQueryLifecycle(t *testing.T) {
	e := newEnv(t, 3)
	q := e.ch.Begin(e.k, 1, 2, consistency.LevelWeak)
	if q.Seq == 0 || q.Resolved() {
		t.Fatalf("bad fresh query %+v", q)
	}
	m, _ := e.reg.Master(2)
	e.ch.Answer(e.k, q, m.Current())
	if !q.Resolved() {
		t.Fatal("query not resolved after Answer")
	}
	if e.ch.Issued() != 1 || e.ch.Answered() != 1 || e.ch.Failed() != 0 {
		t.Errorf("counts = %d/%d/%d", e.ch.Issued(), e.ch.Answered(), e.ch.Failed())
	}
	if e.ch.Latency.Count() != 1 {
		t.Error("latency not recorded")
	}
	if e.ch.Auditor.Answers() != 1 {
		t.Error("answer not audited")
	}
	// Double-resolution is ignored.
	e.ch.Answer(e.k, q, m.Current())
	e.ch.Fail(q, "late")
	if e.ch.Answered() != 1 || e.ch.Failed() != 0 {
		t.Error("double resolution counted")
	}
}

func TestQueryFail(t *testing.T) {
	e := newEnv(t, 3)
	q := e.ch.Begin(e.k, 1, 2, consistency.LevelStrong)
	e.ch.Fail(q, "timeout")
	if e.ch.Failed() != 1 {
		t.Error("failure not counted")
	}
	rs := e.ch.FailReasons()
	if len(rs) != 1 || rs[0].Reason != "timeout" || rs[0].Count != 1 {
		t.Errorf("FailReasons = %+v", rs)
	}
	if e.ch.Latency.Count() != 0 {
		t.Error("failed query recorded latency")
	}
}

// TestAnswerRejectedByAuditFails: an answer the auditor rejects with an
// error (here an invalid level) fails the query instead of answering it, so
// Issued = Answered + Failed still holds and no latency is recorded.
func TestAnswerRejectedByAuditFails(t *testing.T) {
	e := newEnv(t, 3)
	q := e.ch.Begin(e.k, 1, 2, consistency.Level(99))
	m, _ := e.reg.Master(2)
	e.ch.Answer(e.k, q, m.Current())
	if !q.Resolved() {
		t.Fatal("rejected answer left the query open")
	}
	if e.ch.Failed() != 1 || e.ch.Answered() != 0 {
		t.Errorf("answered/failed = %d/%d, want 0/1", e.ch.Answered(), e.ch.Failed())
	}
	if e.ch.Issued() != e.ch.Answered()+e.ch.Failed() {
		t.Errorf("issued %d != answered %d + failed %d", e.ch.Issued(), e.ch.Answered(), e.ch.Failed())
	}
	if e.ch.Latency.Count() != 0 {
		t.Error("rejected answer recorded latency")
	}
	if rs := e.ch.FailReasons(); len(rs) != 1 || rs[0] != (ReasonCount{Reason: "audit-error", Count: 1}) {
		t.Errorf("FailReasons = %+v, want [{audit-error 1}]", rs)
	}
}

func TestAnswerAuditsViolation(t *testing.T) {
	e := newEnv(t, 3)
	m, _ := e.reg.Master(2)
	old := m.Current()
	e.k.RunUntil(10 * time.Minute)
	if _, err := e.reg.Commit(2, e.k.Now()); err != nil {
		t.Fatal(err)
	}
	e.k.RunUntil(20 * time.Minute)
	q := e.ch.Begin(e.k, 1, 2, consistency.LevelStrong)
	e.ch.Answer(e.k, q, old) // stale by 10 minutes: SC violation
	if e.ch.AuditViolations() != 1 {
		t.Errorf("violations = %d, want 1", e.ch.AuditViolations())
	}
}

// TestLedgerCountsAllocFreeAndPublished: with a hub attached, answering
// and failing queries in steady state allocates nothing — the ledger is
// plain arrays and a memoised reason map, latency and staleness are
// handles registered at AttachTelemetry — and Publish exports each count
// once: per level, by failure reason and by violation class. A query at
// an invalid level counts in the totals only. Without a hub both no-op.
func TestLedgerCountsAllocFreeAndPublished(t *testing.T) {
	e := newEnv(t, 3)
	e.ch.AttachTelemetry(nil)
	e.ch.Publish() // a nil hub is inert
	hub := telemetry.NewHub(telemetry.LevelMetrics)
	e.ch.AttachTelemetry(hub)
	m, _ := e.reg.Master(2)
	old := m.Current()
	e.k.RunUntil(10 * time.Minute)
	if _, err := e.reg.Commit(2, e.k.Now()); err != nil {
		t.Fatal(err)
	}
	e.k.RunUntil(20 * time.Minute)
	round := func() {
		q := e.ch.Begin(e.k, 1, 2, consistency.LevelStrong)
		e.ch.Answer(e.k, q, old) // stale by 10 minutes: SC violation
		e.ch.Release(q)
		q = e.ch.Begin(e.k, 1, 2, consistency.LevelDelta)
		e.ch.Fail(q, "poll-timeout")
		e.ch.Release(q)
	}
	round()
	// AllocsPerRun runs the loop twice (a warm-up, then the measured run),
	// so each count ends at 1 + 2·100.
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			round()
		}
	}); total != 0 {
		t.Errorf("100 steady-state answer+fail rounds allocate %.0f objects, want 0", total)
	}
	q := e.ch.Begin(e.k, 1, 2, consistency.Level(99))
	e.ch.Fail(q, "poll-timeout")
	e.ch.Release(q)

	if e.ch.Issued() != 403 || e.ch.Answered() != 201 || e.ch.Failed() != 202 || e.ch.AuditViolations() != 201 {
		t.Errorf("totals issued/answered/failed/violations = %d/%d/%d/%d, want 403/201/202/201",
			e.ch.Issued(), e.ch.Answered(), e.ch.Failed(), e.ch.AuditViolations())
	}
	if rs := e.ch.FailReasons(); len(rs) != 1 || rs[0] != (ReasonCount{"poll-timeout", 202}) {
		t.Errorf("FailReasons = %+v, want poll-timeout 202", rs)
	}
	if got := hub.Snapshot().CounterValue("rpcc_queries_issued_total"); got != 0 {
		t.Errorf("the hub counted %g issued queries before Publish, want 0", got)
	}
	e.ch.Publish()
	snap := hub.Snapshot()
	level := func(l consistency.Level) telemetry.Label { return telemetry.Label{Key: "level", Value: l.String()} }
	for _, c := range []struct {
		family string
		labels []telemetry.Label
		want   float64
	}{
		{"rpcc_queries_issued_total", nil, 402},
		{"rpcc_queries_issued_total", []telemetry.Label{level(consistency.LevelStrong)}, 201},
		{"rpcc_queries_resolved_total", []telemetry.Label{level(consistency.LevelStrong), {Key: "outcome", Value: "answered"}}, 201},
		{"rpcc_queries_resolved_total", []telemetry.Label{level(consistency.LevelDelta), {Key: "outcome", Value: "failed"}}, 201},
		{"rpcc_query_failures_total", []telemetry.Label{{Key: "reason", Value: "poll-timeout"}}, 201},
		{"rpcc_audit_violations_total", []telemetry.Label{{Key: "class", Value: "strong-stale"}}, 201},
		{"rpcc_audit_violations_total", nil, 201},
	} {
		if got := snap.CounterValue(c.family, c.labels...); got != c.want {
			t.Errorf("%s%v = %g, want %g", c.family, c.labels, got, c.want)
		}
	}
	for _, name := range []string{"rpcc_query_latency_seconds", "rpcc_staleness_seconds"} {
		f, ok := snap.Family(name)
		if !ok || len(f.Metrics) != 1 || f.Metrics[0].Count != 201 {
			t.Errorf("%s = %+v, want 201 SC samples", name, f.Metrics)
		}
	}
}

// TestTracedQueryRootCarriesTheRecord: the query root is the per-query
// record — an answered query closes it under its route with item, level,
// served version, staleness and the judge's verdict; a failed one closes
// it as failed:<reason> with item and level only.
func TestTracedQueryRootCarriesTheRecord(t *testing.T) {
	e := newEnv(t, 3)
	e.ch.Tracer = ctrace.NewCollector(0)
	m, _ := e.reg.Master(2)
	old := m.Current()
	e.k.RunUntil(10 * time.Minute)
	if _, err := e.reg.Commit(2, e.k.Now()); err != nil {
		t.Fatal(err)
	}
	e.k.RunUntil(20 * time.Minute)

	answered := e.ch.Begin(e.k, 1, 2, consistency.LevelStrong)
	answered.Route = "poll-direct"
	failed := e.ch.Begin(e.k, 0, 1, consistency.LevelDelta)
	e.k.RunUntil(20*time.Minute + time.Second)
	e.ch.Answer(e.k, answered, old) // stale by 10 minutes: SC violation
	e.ch.Fail(failed, "poll-timeout")

	spans := e.ch.Tracer.Export()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want the two query roots", len(spans))
	}
	got, want := spans[0], ctrace.Span{
		Trace: 1, ID: 1, Node: 1, Phase: ctrace.PhaseQuery, Name: "poll-direct",
		StartNs: (20 * time.Minute).Nanoseconds(), EndNs: (20*time.Minute + time.Second).Nanoseconds(), Seq: 1,
		Annot: &ctrace.Annot{Item: 2, Level: "SC", Served: uint64(old.Version),
			StaleNs: (10*time.Minute + time.Second).Nanoseconds(), Verdict: "strong-stale"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("answered root = %+v annot %+v\nwant %+v annot %+v", got, got.Annot, want, want.Annot)
	}
	got, want = spans[1], ctrace.Span{
		Trace: 2, ID: 2, Node: 0, Phase: ctrace.PhaseQuery, Name: "failed:poll-timeout",
		StartNs: (20 * time.Minute).Nanoseconds(), EndNs: (20*time.Minute + time.Second).Nanoseconds(), Seq: 2,
		Annot: &ctrace.Annot{Item: 1, Level: "DC"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failed root = %+v annot %+v\nwant %+v annot %+v", got, got.Annot, want, want.Annot)
	}
}

func TestFetchDirectFromOwner(t *testing.T) {
	e := newEnv(t, 4)
	var got data.Copy
	ok := false
	e.ch.FetchDirect(e.k, 0, 3, protocol.TraceContext{}, fetchFunc(func(_ *sim.Kernel, c data.Copy, _ int, o bool) { got, ok = c, o }))
	e.k.Run()
	if !ok {
		t.Fatal("direct fetch failed on connected chain")
	}
	m, _ := e.reg.Master(3)
	if got != m.Current() {
		t.Errorf("fetched %+v, want master copy", got)
	}
	if e.ch.PendingFetches() != 0 {
		t.Error("fetch table leaked")
	}
}

func TestFetchRingPrefersNearbyCacheCopy(t *testing.T) {
	e := newEnv(t, 6)
	// Node 1 caches item 5 (owner is node 5, far away).
	m, _ := e.reg.Master(5)
	if err := e.stores[1].Put(m.Current(), 0); err != nil {
		t.Fatal(err)
	}
	from := -1
	e.ch.FetchRing(e.k, 0, 5, protocol.TraceContext{}, fetchFunc(func(_ *sim.Kernel, c data.Copy, f int, o bool) {
		if o {
			from = f
		}
	}))
	e.k.Run()
	if from != 1 {
		t.Fatalf("ring fetch answered by node %d, want nearby holder 1", from)
	}
}

func TestFetchRingFallsBackToOwner(t *testing.T) {
	e := newEnv(t, 6)
	// Nobody caches item 5; only the owner (node 5, five hops away,
	// beyond the first TTL-4 ring) can answer via the TTL-8 ring.
	ok := false
	e.ch.FetchRing(e.k, 0, 5, protocol.TraceContext{}, fetchFunc(func(_ *sim.Kernel, c data.Copy, _ int, o bool) { ok = o }))
	e.k.Run()
	if !ok {
		t.Fatal("ring fetch did not fall back to network-wide flood")
	}
}

func TestFetchRingFailsWhenNoHolderReachable(t *testing.T) {
	// Partitioned: requester alone on an island.
	k := sim.NewKernel()
	pts := []geo.Point{{X: 0}, {X: 9000}, {X: 9200}}
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := data.NewRegistry(3)
	stores := make([]*cache.Store, 3)
	for i := range stores {
		stores[i], _ = cache.NewStore(5)
	}
	aud, _ := consistency.NewAuditor(reg, time.Minute, 0)
	ch, err := NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	called, ok := false, true
	ch.FetchRing(k, 0, 2, protocol.TraceContext{}, fetchFunc(func(_ *sim.Kernel, _ data.Copy, _ int, o bool) { called, ok = true, o }))
	k.Run()
	if !called {
		t.Fatal("callback never invoked")
	}
	if ok {
		t.Fatal("fetch across partition succeeded")
	}
	if ch.PendingFetches() != 0 {
		t.Error("fetch table leaked after failure")
	}
}

func TestFetchDirectTimeout(t *testing.T) {
	k := sim.NewKernel()
	pts := []geo.Point{{X: 0}, {X: 9000}}
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := data.NewRegistry(2)
	stores := []*cache.Store{}
	for i := 0; i < 2; i++ {
		s, _ := cache.NewStore(5)
		stores = append(stores, s)
	}
	aud, _ := consistency.NewAuditor(reg, time.Minute, 0)
	ch, err := NewChassis(net, reg, stores, stats.NewLatency(), aud)
	if err != nil {
		t.Fatal(err)
	}
	var ok = true
	ch.FetchDirect(k, 0, 1, protocol.TraceContext{}, fetchFunc(func(_ *sim.Kernel, _ data.Copy, _ int, o bool) { ok = o }))
	k.Run()
	if ok {
		t.Fatal("unreachable owner fetch succeeded")
	}
}

func TestDuplicateRepliesIgnored(t *testing.T) {
	e := newEnv(t, 4)
	// Two holders of item 3: nodes 1 and 2 both cache it; both answer the
	// flood, the callback must fire once.
	m, _ := e.reg.Master(3)
	e.stores[1].Put(m.Current(), 0)
	e.stores[2].Put(m.Current(), 0)
	calls := 0
	e.ch.FetchRing(e.k, 0, 3, protocol.TraceContext{}, fetchFunc(func(*sim.Kernel, data.Copy, int, bool) { calls++ }))
	e.k.Run()
	if calls != 1 {
		t.Fatalf("callback fired %d times, want 1", calls)
	}
}

func TestNextSeqUnique(t *testing.T) {
	e := newEnv(t, 3)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := e.ch.NextSeq()
		if seen[s] {
			t.Fatal("duplicate seq")
		}
		seen[s] = true
	}
}
