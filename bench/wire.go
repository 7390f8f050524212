package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/oracle"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/wire"
)

const (
	wireNodes    = 5
	wireCacheNum = 4
	wireName     = "wire5-poll"
	// wireTimeout is the per-query deadline; a miss counts as failed.
	wireTimeout = 2 * time.Second
	// wireHopDelay is the one-way delay the timed run injects at every
	// receiver (the wire chaos plane's fixed Delay), equal to the simulated
	// radio's per-hop base. A strong read is then two hops, 4 ms plus the
	// runtime's timer granularity, and query_latency_ms counts protocol
	// rounds the way the simulated workloads do. With instant delivery the
	// round trip is ~30 us of goroutine wake-ups, which on a shared host
	// measures the scheduler: its median moved by a third to a half between
	// runs of the same code. That processor-only round trip is the layer
	// pass's wire.rtt_p50_us, which runs with no delay.
	wireHopDelay = 2 * time.Millisecond
)

// rttHist records round-trip times in fixed 100 ns buckets up to 10 ms
// (slower ones land in the last bucket), so the load generator neither
// allocates nor grows while the daemons are being measured.
type rttHist struct {
	buckets [100_000]uint32
	n       uint64
}

func (h *rttHist) record(d time.Duration) {
	b := int(d / 100)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.n++
}

func (h *rttHist) merge(o *rttHist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantileUs returns the q-quantile in microseconds (bucket upper edge).
func (h *rttHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.buckets {
		if seen += uint64(c); seen > rank {
			return float64(i+1) / 10
		}
	}
	return float64(len(h.buckets)) / 10
}

// ledger collects what oracle.JudgeLive needs — every commit and every
// served answer — and judges the answers a slice at a time while the run
// goes on. Holding a whole run's answers would make the process's peak
// RSS a function of the harness's throughput, not of the daemons.
type ledger struct {
	mu      sync.Mutex
	epoch   time.Time
	commits []oracle.LiveCommit
	answers []oracle.LiveAnswer // filling
	spare   []oracle.LiveAnswer // judged last time, reused next
	input   []oracle.LiveAnswer // carry + slice, reused
	// carry is the last judged answer per (node, item): fed back in front
	// of the next slice so the monotone-reads rule spans slice borders.
	carry map[[2]int]oracle.LiveAnswer
	// spec: every answer here was validated by a poll at the owner, so it
	// is at most one poll round old; slack and inflation are the loopback
	// cluster harness's allowances for scheduling delay.
	spec oracle.LiveSpec

	judged, diverg int
	err            error
}

func newLedger(epoch time.Time) *ledger {
	return &ledger{
		epoch:   epoch,
		answers: make([]oracle.LiveAnswer, 0, 1<<13),
		spare:   make([]oracle.LiveAnswer, 0, 1<<13),
		carry:   map[[2]int]oracle.LiveAnswer{},
		spec: oracle.LiveSpec{
			Envelopes: map[consistency.Level]time.Duration{consistency.LevelStrong: wireCore().PollTimeout},
			Slack:     time.Second,
			Inflate:   2 * time.Second,
		},
	}
}

func (l *ledger) commit(item data.ItemID, v data.Version, at time.Time) {
	l.mu.Lock()
	l.commits = append(l.commits, oracle.LiveCommit{Item: item, Version: v, At: at.Sub(l.epoch)})
	l.mu.Unlock()
}

func (l *ledger) answer(nd int, item data.ItemID, level consistency.Level, served data.Copy, at time.Time) {
	l.mu.Lock()
	l.answers = append(l.answers, oracle.LiveAnswer{Node: nd, Item: item, Level: level, Served: served, At: at.Sub(l.epoch)})
	l.mu.Unlock()
}

// judge runs the live oracle over the answers recorded since the last
// call.
func (l *ledger) judge() {
	l.mu.Lock()
	slice := l.answers
	l.answers = l.spare[:0]
	commits := l.commits[:len(l.commits):len(l.commits)]
	l.mu.Unlock()

	l.input = l.input[:0]
	for _, a := range l.carry {
		l.input = append(l.input, a)
	}
	carried := len(l.input)
	l.input = append(l.input, slice...)
	divs, err := oracle.JudgeLive(commits, l.input, l.spec)
	if err != nil && l.err == nil {
		l.err = err
	}
	l.judged += len(l.input) - carried
	l.diverg += len(divs)
	for _, a := range slice {
		key := [2]int{a.Node, int(a.Item)}
		if prev, ok := l.carry[key]; !ok || a.At >= prev.At {
			l.carry[key] = a
		}
	}
	l.spare = slice
}

// wireClients is the closed loop's width: one outstanding query per
// client, clients on hosts 0 and 1.
func wireClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// wireCore is core.DefaultConfig with the periodic duties pushed past the
// run. Engine.Start staggers every node's first TTN and coefficient tick
// uniformly inside one period; at the Table 1 periods two runs in five
// would see an INVALIDATION mid-window, after which polls go direct and
// tx_per_answer and allocs_per_answer change with the seed. A day-long
// period keeps every answered query on the same path: one POLL flood to
// the four peers and one ACK from the owner.
func wireCore() core.Config {
	cc := core.DefaultConfig()
	cc.TTN = 24 * time.Hour
	cc.TTR = 18 * time.Hour
	cc.TTP = 48 * time.Hour
	cc.CoeffPeriod = 24 * time.Hour
	return cc
}

// wireCluster is the five in-process daemons plus the live oracle's
// ledgers.
type wireCluster struct {
	nodes   []*wire.Node
	tracers []*ctrace.Collector
	ledger  *ledger
	// answered[h] receives one token per answer served at client host h.
	answered []chan struct{}
	setup    time.Duration // bind + NewNode + Start + first answer on every client host
}

// startWire binds, builds and starts the five daemons and waits for the
// first answer on every client host. A positive hopDelay delays every
// received frame by that much.
func startWire(seed int64, clients int, traced bool, hopDelay time.Duration) (*wireCluster, error) {
	start := time.Now()
	var chaos *wire.Script
	if hopDelay > 0 {
		chaos = &wire.Script{Delay: wire.Duration(hopDelay)}
	}
	c := &wireCluster{ledger: newLedger(start)}
	conns := make([]*net.UDPConn, wireNodes)
	peers := make(map[int]string, wireNodes)
	closeAll := func() {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}
	for i := range conns {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("wire: bind node %d: %w", i, err)
		}
		conns[i] = conn
		peers[i] = conn.LocalAddr().String()
	}
	c.answered = make([]chan struct{}, clients)
	for h := range c.answered {
		c.answered[h] = make(chan struct{}, 1) // one outstanding query per client
	}
	c.tracers = make([]*ctrace.Collector, wireNodes)
	for i := 0; i < wireNodes; i++ {
		i := i
		if traced {
			c.tracers[i] = ctrace.NewCollector(i)
		}
		nd, err := wire.NewNode(wire.NodeConfig{
			Self: i, Nodes: wireNodes, Peers: peers, Conn: conns[i],
			Seed:      seed + int64(i)*1000003,
			Strategy:  wire.StrategyRPCCSC,
			Core:      wireCore(),
			Placement: wire.CyclicPlacement(i, wireNodes, wireCacheNum),
			// The built-in generator only writes; queries come from the
			// closed loop below.
			QueryInterval:  24 * time.Hour,
			UpdateInterval: 250 * time.Millisecond,
			Trace:          c.tracers[i],
			Chaos:          chaos,
			OnAnswer: func(nd int, item data.ItemID, level consistency.Level, served data.Copy, at time.Time) {
				c.ledger.answer(nd, item, level, served, at)
				if i < clients {
					select {
					case c.answered[i] <- struct{}{}:
					default: // a late answer to a query the client gave up on
					}
				}
			},
			OnCommit: c.ledger.commit,
		})
		if err != nil {
			c.stop()
			closeAll()
			return nil, fmt.Errorf("wire: build node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		conns[i] = nil // the node owns its socket now
	}
	for i, nd := range c.nodes {
		if err := nd.Start(); err != nil {
			c.stop()
			closeAll()
			return nil, fmt.Errorf("wire: start node %d: %w", i, err)
		}
	}
	for h := 0; h < clients; h++ {
		c.nodes[h].Query(wire.CyclicPlacement(h, wireNodes, wireCacheNum)[0], consistency.LevelStrong)
		select {
		case <-c.answered[h]:
		case <-time.After(5 * time.Second):
			c.stop()
			return nil, fmt.Errorf("wire: host %d served no first answer", h)
		}
	}
	c.setup = time.Since(start)
	return c, nil
}

// stop shuts every daemon down and waits for its goroutines.
func (c *wireCluster) stop() []error {
	var errs []error
	for _, nd := range c.nodes {
		if err := nd.Stop(2 * time.Second); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (c *wireCluster) totalTx() uint64 {
	var tx uint64
	for _, nd := range c.nodes {
		tx += nd.Traffic().TotalTx()
	}
	return tx
}

// wireWindow is what one measured window of the closed loop saw.
type wireWindow struct {
	elapsed                time.Duration
	answered, timeouts, tx uint64
	mallocs, allocBytes    uint64
	cpu                    time.Duration
	answeredRates, txRates []float64 // per one-second slice of the window
	rtt                    rttHist
	judged, diverg         int
	decodeErrs, readErrs   uint64
	spans                  []ctrace.Span
}

// drive runs the closed loop against the started cluster: warm-up, then
// the measured window with the answers judged slice by slice, then
// shutdown. Each client sends its next query as soon as the last one is
// answered. rec spans the judge calls.
func (c *wireCluster) drive(seed int64, warmup, window time.Duration, rec *spanRec) (*wireWindow, []error) {
	clients := len(c.answered)
	var answered, timeouts atomic.Uint64
	var measuring atomic.Bool
	rtts := make([]rttHist, clients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < clients; h++ {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(h)))
			place := wire.CyclicPlacement(h, wireNodes, wireCacheNum)
			timer := time.NewTimer(time.Hour) // reused: no allocation per query
			defer timer.Stop()
			for {
				select {
				case <-stop:
					return
				default:
				}
				select {
				case <-c.answered[h]: // answer to a query that already timed out
				default:
				}
				item := place[rng.Intn(len(place))]
				issued := time.Now()
				if !c.nodes[h].Query(item, consistency.LevelStrong) {
					return // daemon stopped
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(wireTimeout)
				select {
				case <-c.answered[h]:
					answered.Add(1)
					if measuring.Load() {
						rtts[h].record(time.Since(issued))
					}
				case <-timer.C:
					timeouts.Add(1)
				}
			}
		}()
	}

	time.Sleep(warmup)
	rec.do("judge", c.ledger.judge)
	w := &wireWindow{}
	var m0, m1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	a0, t0, tx0 := answered.Load(), timeouts.Load(), c.totalTx()
	measuring.Store(true)
	start := time.Now()
	prevA, prevTx, prevT := a0, tx0, start
	// Rates are sampled over slices of a second (a quarter of a short
	// window); the judge runs ten times as often so that the answers it
	// holds stay a small, fixed share of the process's memory.
	slice := time.Second
	if window < 4*slice {
		slice = window / 4
	}
	for tick := 1; time.Since(start) < window; tick++ {
		time.Sleep(slice / 10)
		rec.do("judge", c.ledger.judge)
		if tick%10 != 0 {
			continue
		}
		now, a, tx := time.Now(), answered.Load(), c.totalTx()
		dt := now.Sub(prevT).Seconds()
		w.answeredRates = append(w.answeredRates, float64(a-prevA)/dt)
		w.txRates = append(w.txRates, float64(tx-prevTx)/dt)
		prevA, prevTx, prevT = a, tx, now
	}
	measuring.Store(false)
	w.elapsed = time.Since(start)
	w.answered, w.timeouts, w.tx = answered.Load()-a0, timeouts.Load()-t0, c.totalTx()-tx0
	runtime.ReadMemStats(&m1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	w.mallocs, w.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	w.cpu = time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())

	close(stop)
	wg.Wait()
	stopErrs := c.stop()
	for _, nd := range c.nodes {
		w.decodeErrs += nd.Transport().DecodeErrors()
		w.readErrs += nd.Transport().ReadErrors()
	}
	for i := range rtts {
		w.rtt.merge(&rtts[i])
	}
	rec.do("judge", c.ledger.judge)
	w.judged, w.diverg = c.ledger.judged, c.ledger.diverg
	if c.ledger.err != nil {
		stopErrs = append(stopErrs, c.ledger.err)
	}
	if c.tracers[0] != nil {
		sets := make([][]ctrace.Span, len(c.nodes))
		for i, nd := range c.nodes {
			sets[i] = nd.TraceSpans()
		}
		w.spans = ctrace.Merge(sets...)
	}
	return w, stopErrs
}

// gate applies the wire correctness checks: a clean shutdown, no oracle
// divergence, and timeouts within 0.1 % of the queries issued.
func (w *wireWindow) gate(rep *report, errs []error, what string) {
	issued := w.answered + w.timeouts
	rep.Attempted += int(issued)
	rep.Failed += int(w.timeouts)
	for _, err := range errs {
		rep.breach("%s: %v", what, err)
	}
	if w.diverg != 0 {
		rep.breach("%s: %d of %d answers diverge from the live oracle", what, w.diverg, w.judged)
	}
	if w.answered == 0 {
		rep.breach("%s: no query answered", what)
	}
	if float64(w.timeouts) > 0.001*float64(issued) {
		rep.breach("%s: %d of %d queries timed out", what, w.timeouts, issued)
	}
}

// wireTimed is the --trace 0 run of wire5-poll.
func wireTimed(seed int64, seconds float64, sz sizing) (*report, error) {
	rep := &report{Values: values{}}
	clients := wireClients()
	c, err := startWire(seed, clients, false, wireHopDelay)
	if err != nil {
		return nil, err
	}
	w, errs := c.drive(seed, sz.wireWarmup, time.Duration(seconds*float64(time.Second)), nil)
	w.gate(rep, errs, "measured window")
	rss := peakRSSMB()

	setup, err := medianSetup(sz, []float64{c.setup.Seconds()}, func() (float64, error) {
		extra, err := startWire(seed, clients, false, wireHopDelay)
		if err != nil {
			return 0, err
		}
		for _, err := range extra.stop() {
			rep.breach("set-up repetition: %v", err)
		}
		return extra.setup.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}

	answered := float64(w.answered)
	v := rep.Values
	v["setup_s"] = setup
	v["answered_per_wall_s"] = median(w.answeredRates)
	v["tx_per_wall_s"] = median(w.txRates)
	v["peak_rss_mb"] = rss
	v["answer_rate"] = answered / float64(w.answered+w.timeouts)
	v["tx_per_answer"] = float64(w.tx) / answered
	v["query_latency_ms"] = w.rtt.quantileUs(0.5) / 1e3
	v["allocs_per_answer"] = float64(w.mallocs) / answered
	v["alloc_bytes_per_answer"] = float64(w.allocBytes) / answered
	return rep, nil
}

// wireLayers is the --trace 1 run of wire5-poll: an untraced window for
// the wire.* rows, a short traced window for the phase attribution, and
// the layer probes.
func wireLayers(seed int64, sz sizing, outDir string) (*report, error) {
	rep := &report{Values: values{}}
	rec := newSpanRec(wireName)
	v := rep.Values
	clients := wireClients()
	var runErr error
	wallStart := time.Now()
	rec.do("workload", func() {
		var c *wireCluster
		var plain, traced *wireWindow
		var errs []error
		rec.do("setup", func() { c, runErr = startWire(seed, clients, false, 0) })
		if runErr != nil {
			return
		}
		setup := c.setup
		rec.do("run", func() { plain, errs = c.drive(seed, sz.wireWarmup, sz.wireLayerWindow, rec) })
		plain.gate(rep, errs, "untraced window")

		rec.do("setup-traced", func() { c, runErr = startWire(seed, clients, true, 0) })
		if runErr != nil {
			return
		}
		rec.do("run-traced", func() {
			traced, errs = c.drive(seed, sz.wireWarmup/4, sz.wireTraceWindow, rec)
		})
		traced.gate(rep, errs, "traced window")

		answered := float64(plain.answered)
		rate := answered / plain.elapsed.Seconds()
		v["wire.answered_per_wall_s"] = rate
		v["wire.rtt_p50_us"] = plain.rtt.quantileUs(0.5)
		v["wire.rtt_p99_us"] = plain.rtt.quantileUs(0.99)
		v["wire.rtt_samples"] = float64(plain.rtt.n)
		v["wire.cpu_us_per_answer"] = float64(plain.cpu.Microseconds()) / answered
		v["wire.timeouts"] = float64(plain.timeouts)
		v["wire.decode_errors"] = float64(plain.decodeErrs)
		v["wire.read_errors"] = float64(plain.readErrs)
		v["workload.issued_per_sim_s"] = float64(plain.answered+plain.timeouts) / plain.elapsed.Seconds()
		if plain.judged > 0 {
			v["consistency.violation_rate"] = float64(plain.diverg) / float64(plain.judged)
		}
		if tr := float64(traced.answered) / traced.elapsed.Seconds(); tr > 0 {
			v["telemetry.trace_overhead"] = rate/tr - 1
		}
		v["experiment.setup_share"] = setup.Seconds() / plain.elapsed.Seconds()
		v["experiment.rss_kb_per_node"] = peakRSSMB() * 1024 / wireNodes
		rec.do("critical-paths", func() { phaseShares(v, traced.spans) })
		traced = nil
		rec.do("probes", func() { runProbes(rep, sz, seed, rec) })
	})
	wall := time.Since(wallStart)
	if runErr != nil {
		return nil, runErr
	}
	return rep, finishSpans(rep, rec, wall, outDir)
}
