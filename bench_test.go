package rpcc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (§5). One benchmark per figure: each iteration runs
// the figure's full parameter sweep (one simulation per strategy × sweep
// point) at a reduced simulated duration, and reports the figure's
// y-values as custom benchmark metrics so the series appear directly in
// `go test -bench` output. Absolute numbers depend on the simulated
// duration; the SHAPES — who wins, by what factor, where the crossovers
// fall — are the reproduction targets and are asserted in the test suite.
//
// Figure index:
//
//	BenchmarkFig7a…c — network traffic vs update interval / request
//	                   interval / cache number (paper Fig 7)
//	BenchmarkFig8a…c — query latency over the same sweeps (paper Fig 8)
//	BenchmarkFig9a/b — traffic and latency vs invalidation TTL on the
//	                   single-hot-item topology (paper Fig 9)
//	BenchmarkRelayCountVsTTL — the §5.3 relay-population series
//	BenchmarkAblation*       — design-choice ablations (DESIGN.md A1, A3–A5, A7, A10)
//
// Substrate micro-benchmarks (kernel events, graph build, route lookup,
// unicast, flood) live in bench/probes.go; the two delivery hot-path
// pins at the end of this file share their 50-node layout.
import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// benchSimTime keeps one full figure sweep around a few seconds of wall
// time. Use rpcc figures -simtime 5h for the paper-duration reproduction.
const benchSimTime = 10 * time.Minute

// benchFigure runs the identified figure sweep each iteration and reports
// the mean y-value of every strategy's series as a custom metric.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var spec experiment.SweepSpec
	found := false
	for _, s := range experiment.AllFigureSpecs() {
		if s.ID == id {
			spec, found = s, true
			break
		}
	}
	if !found {
		b.Fatalf("unknown figure %q", id)
	}
	base := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
	base.SimTime = benchSimTime

	var fig experiment.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiment.RunSweep(spec, base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, series := range fig.Series {
		var sum float64
		for _, pt := range series.Points {
			sum += spec.Metric(pt.Result)
		}
		mean := sum / float64(len(series.Points))
		b.ReportMetric(mean, fmt.Sprintf("%s_%s", series.Strategy, yUnit(spec)))
	}
}

func yUnit(spec experiment.SweepSpec) string {
	if spec.YLabel == "messages" {
		return "msgs"
	}
	if spec.YLabel == "relay peers" {
		return "relays"
	}
	return "ms"
}

// BenchmarkFig7aTrafficVsUpdateInterval regenerates paper Fig 7(a).
func BenchmarkFig7aTrafficVsUpdateInterval(b *testing.B) { benchFigure(b, "fig7a") }

// BenchmarkFig7bTrafficVsQueryInterval regenerates paper Fig 7(b).
func BenchmarkFig7bTrafficVsQueryInterval(b *testing.B) { benchFigure(b, "fig7b") }

// BenchmarkFig7cTrafficVsCacheNum regenerates paper Fig 7(c).
func BenchmarkFig7cTrafficVsCacheNum(b *testing.B) { benchFigure(b, "fig7c") }

// BenchmarkFig8aLatencyVsUpdateInterval regenerates paper Fig 8(a).
func BenchmarkFig8aLatencyVsUpdateInterval(b *testing.B) { benchFigure(b, "fig8a") }

// BenchmarkFig8bLatencyVsQueryInterval regenerates paper Fig 8(b).
func BenchmarkFig8bLatencyVsQueryInterval(b *testing.B) { benchFigure(b, "fig8b") }

// BenchmarkFig8cLatencyVsCacheNum regenerates paper Fig 8(c).
func BenchmarkFig8cLatencyVsCacheNum(b *testing.B) { benchFigure(b, "fig8c") }

// BenchmarkFig9aTrafficVsTTL regenerates paper Fig 9(a).
func BenchmarkFig9aTrafficVsTTL(b *testing.B) { benchFigure(b, "fig9a") }

// BenchmarkFig9bLatencyVsTTL regenerates paper Fig 9(b).
func BenchmarkFig9bLatencyVsTTL(b *testing.B) { benchFigure(b, "fig9b") }

// BenchmarkRelayCountVsTTL regenerates the §5.3 relay-population series
// (DESIGN.md ablation A3).
func BenchmarkRelayCountVsTTL(b *testing.B) { benchFigure(b, "relay-count") }

// BenchmarkAblationOmega sweeps the history weight ω of Eq 4.2.2–4.2.5
// (DESIGN.md A1) and reports the relay population and traffic under each.
func BenchmarkAblationOmega(b *testing.B) {
	omegas := []float64{0, 0.2, 0.5, 1}
	results := make([]experiment.Result, len(omegas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, omega := range omegas {
			cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
			cfg.SimTime = benchSimTime
			cfg.Omega = omega
			r, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = r
		}
	}
	b.StopTimer()
	for j, omega := range omegas {
		b.ReportMetric(float64(results[j].RelayCount), fmt.Sprintf("omega%.1f_relays", omega))
	}
}

// BenchmarkAblationEagerRefresh quantifies the eager relay-refresh
// extension (DESIGN.md A4): RPCC(SC) with and without it.
func BenchmarkAblationEagerRefresh(b *testing.B) {
	var eager, faithful experiment.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
			cfg.SimTime = benchSimTime
			cfg.DisableEagerRefresh = disable
			r, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if disable {
				faithful = r
			} else {
				eager = r
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eager.TotalTx), "eager_msgs")
	b.ReportMetric(float64(faithful.TotalTx), "fig6c_msgs")
	b.ReportMetric(float64(eager.MeanLatency.Milliseconds()), "eager_ms")
	b.ReportMetric(float64(faithful.MeanLatency.Milliseconds()), "fig6c_ms")
}

// benchPoints draws the Table 1 geometry: 50 nodes uniform on 1.5×1.5 km.
func benchPoints(b testing.TB, n int) []geo.Point {
	b.Helper()
	terrain, err := geo.NewTerrain(1500, 1500)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = terrain.RandomPoint(r)
	}
	return pts
}

// benchNetwork wires a 50-node network over a frozen random layout for
// the delivery hot-path pins.
func benchNetwork(b testing.TB) (*sim.Kernel, *netsim.Network) {
	b.Helper()
	pts := benchPoints(b, 50)
	k := sim.NewKernel(sim.WithSeed(1))
	net, err := netsim.New(netsim.DefaultConfig(), k, staticField(pts), nil, nil, stats.NewTraffic())
	if err != nil {
		b.Fatal(err)
	}
	return k, net
}

// staticField adapts a fixed layout to netsim.PositionSource.
type staticField []geo.Point

func (f staticField) Len() int { return len(f) }

func (f staticField) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	if cap(dst) < len(f) {
		dst = make([]geo.Point, len(f))
	}
	dst = dst[:len(f)]
	copy(dst, f)
	return dst
}

// BenchmarkFullScenarioRPCC measures end-to-end simulation speed: one
// Table 1 run (50 peers, RPCC-SC) per iteration at benchSimTime.
func BenchmarkFullScenarioRPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, int64(i)+1)
		cfg.SimTime = benchSimTime
		if _, err := experiment.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDSRRouting swaps the idealised oracle routing layer
// for DSR-style on-demand source routing (DESIGN.md A5) and reports the
// traffic with routing control overhead included.
func BenchmarkAblationDSRRouting(b *testing.B) {
	var oracle, dsr experiment.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, useDSR := range []bool{false, true} {
			cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
			cfg.SimTime = benchSimTime
			cfg.UseDSRRouting = useDSR
			r, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if useDSR {
				dsr = r
			} else {
				oracle = r
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(oracle.TotalTx), "oracle_msgs")
	b.ReportMetric(float64(dsr.TotalTx), "dsr_msgs")
	b.ReportMetric(float64(dsr.MeanLatency.Milliseconds()), "dsr_ms")
	b.ReportMetric(100*dsr.AnswerRate(), "dsr_answered_pct")
}

// BenchmarkAblationLossRate sweeps the wireless loss rate (DESIGN.md A7)
// and reports RPCC(SC)'s answer rate and traffic under each — the
// robustness dimension the paper's §1 problem statement raises ("higher
// packets loss rate") but its evaluation does not quantify.
func BenchmarkAblationLossRate(b *testing.B) {
	rates := []float64{0, 0.1, 0.2, 0.3}
	results := make([]experiment.Result, len(rates))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, rate := range rates {
			cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, 1)
			cfg.SimTime = benchSimTime
			cfg.LossRate = rate
			r, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = r
		}
	}
	b.StopTimer()
	for j, rate := range rates {
		b.ReportMetric(100*results[j].AnswerRate(), fmt.Sprintf("loss%.0f%%_answered_pct", 100*rate))
	}
}

// BenchmarkAblationSerializedRadio swaps the idealised parallel radio for
// a single serialized transmitter per node (DESIGN.md A10): flood-heavy
// pull should feel MAC queueing hardest.
func BenchmarkAblationSerializedRadio(b *testing.B) {
	type pair struct{ ideal, serial experiment.Result }
	results := map[experiment.StrategyKind]*pair{}
	strategies := []experiment.StrategyKind{experiment.StrategyPull, experiment.StrategyRPCCSC}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range strategies {
			p := &pair{}
			for _, serialize := range []bool{false, true} {
				cfg := experiment.DefaultConfig(s, 1)
				cfg.SimTime = benchSimTime
				cfg.SerializeTx = serialize
				r, err := experiment.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if serialize {
					p.serial = r
				} else {
					p.ideal = r
				}
			}
			results[s] = p
		}
	}
	b.StopTimer()
	for _, s := range strategies {
		b.ReportMetric(float64(results[s].ideal.MeanLatency.Milliseconds()), fmt.Sprintf("%s_ideal_ms", s))
		b.ReportMetric(float64(results[s].serial.MeanLatency.Milliseconds()), fmt.Sprintf("%s_mac_ms", s))
	}
}

// TestDeliveryDoesNotAllocate pins the message-delivery hot path on the
// 50-node layout above with no tracer and no collector installed: once
// the pools, the kernel heap and the route tables are warm, a flood with
// every reception drained and a unicast with every hop drained allocate
// nothing.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	k, net := benchNetwork(t)
	var heard, arrived, hops int
	for node := 0; node < net.Len(); node++ {
		if err := net.SetReceiver(node, func(_ *sim.Kernel, _ int, _ protocol.Message, meta netsim.Meta) {
			if meta.Flood {
				heard++
			} else {
				arrived++
				hops += meta.Hops
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	flood := func() {
		msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 1, Version: 1, Origin: i % 50}
		if err := net.Flood(i%50, 8, msg); err != nil {
			t.Fatal(err)
		}
		k.Run()
		i++
	}
	unicast := func() {
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1, Origin: i % 50}
		if err := net.Unicast(i%50, (i+25)%50, msg); err != nil {
			t.Fatal(err)
		}
		k.Run()
		i++
	}
	for warm := 0; warm < 100; warm++ {
		flood()
		unicast()
	}
	heard, arrived, hops = 0, 0, 0
	if avg := testing.AllocsPerRun(200, flood); avg != 0 {
		t.Errorf("steady-state Flood allocates %.2f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, unicast); avg != 0 {
		t.Errorf("steady-state Unicast allocates %.2f objects per call, want 0", avg)
	}
	// The layout is sparse, so not every pair is connected; enough must be,
	// and over several hops, for the pins to have measured the path.
	if heard < 1000 || arrived < 50 || hops < 2*arrived {
		t.Fatalf("%d flood receptions, %d unicasts delivered over %d hops in 201 sends of each; the pins measured too little", heard, arrived, hops)
	}
}

// TestReentrantDeliveryKeepsRecordsApart drives the pooled delivery
// records the hard way: receivers re-flood and answer by unicast from
// inside delivery, so records are drawn while the one being delivered has
// only just been released. Every send carries a unique Seq, and every
// delivery must show exactly the payload, origin and hop budget of its
// own send — a record reused while its fields were still live would
// surface another send's. A broadcast's hearers are one record walked in
// neighbour-row order, so the origin's neighbours must hear the wide
// flood back to back and in that order even though each of them sends
// from inside the walk. Steady state still allocates nothing.
func TestReentrantDeliveryKeepsRecordsApart(t *testing.T) {
	const (
		wideTTL = 8
		echoTTL = 2
		sends   = 256 // ring of sends the ledger below remembers
	)
	k, net := benchNetwork(t)
	n := net.Len()
	type send struct {
		kind    protocol.Kind
		origin  int
		dst     int // unicast destination, -1 for a flood
		ttl     int
		floodID uint64
		heard   []bool // per node: this send already delivered there
		count   int
	}
	ledger := make([]send, sends)
	for s := range ledger {
		ledger[s].heard = make([]bool, n)
	}
	var next uint64 // Seq of the latest send; ledger slot = Seq % sends
	var floods uint64
	open := func(kind protocol.Kind, origin, dst, ttl int) protocol.Message {
		next++
		s := &ledger[next%sends]
		clear(s.heard)
		*s = send{kind: kind, origin: origin, dst: dst, ttl: ttl, heard: s.heard}
		if dst < 0 {
			floods++
			s.floodID = floods
		}
		return protocol.Message{Kind: kind, Item: 7, Version: 1, Origin: origin, Seq: next}
	}
	var fail string
	// firstHop lists who heard the round's wide flood straight from its
	// origin, in delivery order; lastFirstHop is the delivery count at the
	// latest of them.
	firstHop := make([]int, 0, n)
	var deliveries, lastFirstHop int
	check := func(node int, msg protocol.Message, meta netsim.Meta) *send {
		s := &ledger[msg.Seq%sends]
		deliveries++
		if msg.Kind == protocol.KindInvalidation && meta.Hops == 1 {
			if len(firstHop) > 0 && deliveries != lastFirstHop+1 {
				fail = fmt.Sprintf("node %d: another delivery ran inside the origin's broadcast", node)
			}
			lastFirstHop = deliveries
			firstHop = append(firstHop, node)
		}
		switch {
		case msg.Kind != s.kind || msg.Origin != s.origin || msg.Item != 7:
			fail = fmt.Sprintf("node %d got %+v, sent as kind %v from %d", node, msg, s.kind, s.origin)
		case meta.Flood != (s.dst < 0) || meta.FloodID != s.floodID:
			fail = fmt.Sprintf("node %d: meta %+v on a send with dst %d, flood id %d", node, meta, s.dst, s.floodID)
		case s.dst >= 0 && node != s.dst:
			fail = fmt.Sprintf("unicast for %d delivered to %d", s.dst, node)
		case s.dst < 0 && (meta.Hops < 1 || meta.Hops > s.ttl):
			fail = fmt.Sprintf("flood with TTL %d delivered at %d hops", s.ttl, meta.Hops)
		case s.heard[node]:
			fail = fmt.Sprintf("send %d delivered to node %d twice", msg.Seq, node)
		}
		s.heard[node] = true
		s.count++
		return s
	}
	for node := 0; node < n; node++ {
		if err := net.SetReceiver(node, func(_ *sim.Kernel, node int, msg protocol.Message, meta netsim.Meta) {
			s := check(node, msg, meta)
			if s.kind != protocol.KindInvalidation {
				return
			}
			// Inside the wide flood's delivery: answer its origin, and on
			// every fifth node start a flood of our own.
			if err := net.Unicast(node, s.origin, open(protocol.KindPollAckA, node, s.origin, 0)); err != nil {
				fail = err.Error()
			}
			if node%5 == 0 {
				if err := net.Flood(node, echoTTL, open(protocol.KindIR, node, -1, echoTTL)); err != nil {
					fail = err.Error()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	var wide, acks int
	round := func() {
		origin := i % n
		i++
		first := next + 1
		firstHop = firstHop[:0]
		if err := net.Flood(origin, wideTTL, open(protocol.KindInvalidation, origin, -1, wideTTL)); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if row := net.Graph().Neighbors(origin); !slices.Equal(firstHop, row) {
			fail = fmt.Sprintf("flood from %d: first-hop deliveries %v, neighbour row %v", origin, firstHop, row)
		}
		if next-first >= sends {
			fail = fmt.Sprintf("round made %d sends, ledger holds %d", next-first+1, sends)
		}
		wide = ledger[first%sends].count
		acks = 0
		for v := first + 1; v <= next; v++ {
			if s := &ledger[v%sends]; s.kind == protocol.KindPollAckA {
				acks += s.count
			}
		}
	}
	for warm := 0; warm < 2*n; warm++ {
		round()
		if fail != "" {
			t.Fatal(fail)
		}
		// The layout is static and lossless: the wide flood reaches its
		// whole TTL ball and every receiver's answer comes back.
		origin := (i - 1) % n
		if want := len(net.Graph().WithinTTL(origin, wideTTL)); wide != want || acks != want {
			t.Fatalf("flood from %d: %d receptions, %d answers, want %d of each", origin, wide, acks, want)
		}
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("steady-state re-entrant delivery allocates %.2f objects per round, want 0", avg)
	}
	if fail != "" {
		t.Fatal(fail)
	}
}
