package netsim

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/energy"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// staticSource pins every node at a fixed position, giving tests exact
// control over the topology.
type staticSource struct {
	pts []geo.Point
}

var _ PositionSource = (*staticSource)(nil)

func (s *staticSource) Len() int { return len(s.pts) }

func (s *staticSource) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	if cap(dst) < len(s.pts) {
		dst = make([]geo.Point, len(s.pts))
	}
	dst = dst[:len(s.pts)]
	copy(dst, s.pts)
	return dst
}

// chain returns n nodes spaced 200m apart on a line: with the default
// 250m range, only adjacent nodes connect.
func chain(n int) *staticSource {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200, Y: 0}
	}
	return &staticSource{pts: pts}
}

func testMsg(kind protocol.Kind) protocol.Message {
	return protocol.Message{Kind: kind, Item: 1, Version: 3, Origin: 0}
}

type delivery struct {
	node int
	msg  protocol.Message
	meta Meta
}

// harness wires a network over a static chain with an optional churn
// process and per-node delivery recording.
type harness struct {
	k     *sim.Kernel
	net   *Network
	churn *churn.Process
	got   []delivery
}

// takeAll empties p down to its first fresh zero record, which it puts
// back, and returns the parked records it took, bottom of the stack first:
// putting them back in that order restores the pool. It is how a test
// reads a pool's contents, which sim.Pool does not expose.
func takeAll[T any](p *sim.Pool[T]) []*T {
	var parked []*T
	for {
		r := p.New()
		if reflect.ValueOf(r).Elem().IsZero() {
			p.Put(r)
			slices.Reverse(parked)
			return parked
		}
		parked = append(parked, r)
	}
}

// pooled returns the records parked in p, bottom first, leaving p as it
// was.
func pooled[T any](p *sim.Pool[T]) []*T {
	parked := takeAll(p)
	for _, r := range parked {
		p.Put(r)
	}
	return parked
}

func newHarness(t *testing.T, n int, withChurn bool) *harness {
	t.Helper()
	return newHarnessOn(t, chain(n), withChurn)
}

// newHarnessOn is newHarness over any fixed layout.
func newHarnessOn(t *testing.T, layout *staticSource, withChurn bool) *harness {
	t.Helper()
	return newHarnessCfg(t, DefaultConfig(), layout, withChurn)
}

// newHarnessCfg is newHarnessOn with a non-default network config.
func newHarnessCfg(t *testing.T, cfg Config, layout *staticSource, withChurn bool) *harness {
	t.Helper()
	n := layout.Len()
	k := sim.NewKernel(sim.WithSeed(42))
	var cp *churn.Process
	var err error
	if withChurn {
		cp, err = churn.NewProcess(churn.Config{Disabled: true}, n, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	net, err := New(cfg, k, layout, cp, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, net: net, churn: cp}
	for i := 0; i < n; i++ {
		i := i
		if err := net.SetReceiver(i, func(_ *sim.Kernel, node int, msg protocol.Message, meta Meta) {
			h.got = append(h.got, delivery{node: node, msg: msg, meta: meta})
		}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"zero range", func(c *Config) { c.CommRange = 0 }, false},
		{"zero hop base", func(c *Config) { c.HopBase = 0 }, false},
		{"zero bandwidth", func(c *Config) { c.BandwidthBps = 0 }, false},
		{"negative jitter", func(c *Config) { c.JitterMax = -1 }, false},
		{"zero refresh", func(c *Config) { c.TopologyRefresh = 0 }, false},
		{"zero max hops", func(c *Config) { c.MaxRouteHops = 0 }, false},
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

func TestNewValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := New(DefaultConfig(), nil, chain(3), nil, nil, nil); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := New(DefaultConfig(), k, nil, nil, nil, nil); err == nil {
		t.Error("nil field accepted")
	}
	bats := make([]*energy.Battery, 2)
	if _, err := New(DefaultConfig(), k, chain(3), nil, bats, nil); err == nil {
		t.Error("mismatched batteries accepted")
	}
}

func TestUnicastDeliversAcrossChain(t *testing.T) {
	h := newHarness(t, 5, false)
	msg := testMsg(protocol.KindApply)
	if err := h.net.Unicast(0, 4, msg); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(h.got))
	}
	d := h.got[0]
	if d.node != 4 {
		t.Errorf("delivered to %d, want 4", d.node)
	}
	if d.meta.Hops != 4 {
		t.Errorf("hops = %d, want 4", d.meta.Hops)
	}
	if d.meta.Flood {
		t.Error("unicast delivery marked as flood")
	}
	if d.meta.At <= 0 {
		t.Error("delivery time not positive")
	}
	tr := h.net.Traffic()
	if got := tr.Tx(protocol.KindApply); got != 4 {
		t.Errorf("transmissions = %d, want 4 (one per hop)", got)
	}
	if got := tr.Delivered(protocol.KindApply); got != 1 {
		t.Errorf("delivered = %d, want 1", got)
	}
}

func TestUnicastToSelfIsFree(t *testing.T) {
	h := newHarness(t, 3, false)
	if err := h.net.Unicast(1, 1, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 1 || h.got[0].meta.Hops != 0 {
		t.Fatalf("self delivery = %+v", h.got)
	}
	if got := h.net.Traffic().TotalTx(); got != 0 {
		t.Errorf("self unicast transmitted %d times", got)
	}
}

func TestUnicastDropsAcrossPartition(t *testing.T) {
	// Two nodes 9km apart: unreachable.
	src := &staticSource{pts: []geo.Point{{X: 0}, {X: 9000}}}
	k := sim.NewKernel()
	net, err := New(DefaultConfig(), k, src, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	net.SetReceiver(1, func(*sim.Kernel, int, protocol.Message, Meta) { delivered = true })
	if err := net.Unicast(0, 1, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered {
		t.Fatal("message crossed a partition")
	}
	if got := net.Traffic().Dropped(protocol.KindPoll); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestUnicastValidatesMessage(t *testing.T) {
	h := newHarness(t, 3, false)
	if err := h.net.Unicast(0, 2, protocol.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
	if err := h.net.Unicast(-1, 2, testMsg(protocol.KindPoll)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := h.net.Unicast(0, 99, testMsg(protocol.KindPoll)); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestUnicastFromDownNodeDropped(t *testing.T) {
	h := newHarness(t, 3, true)
	if err := h.churn.ForceState(h.k, 0, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 2, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 0 {
		t.Fatal("down node's message delivered")
	}
	if got := h.net.Traffic().Dropped(protocol.KindPoll); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestUnicastToDownNodeDropped(t *testing.T) {
	h := newHarness(t, 3, true)
	if err := h.churn.ForceState(h.k, 2, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 2, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 0 {
		t.Fatal("message delivered to down node")
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	h := newHarness(t, 8, false)
	if err := h.net.Flood(0, 3, testMsg(protocol.KindInvalidation)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	// Nodes 1..3 are within 3 hops on the chain; 4..7 are not.
	reached := map[int]int{}
	for _, d := range h.got {
		reached[d.node] = d.meta.Hops
		if !d.meta.Flood {
			t.Error("flood delivery not marked Flood")
		}
	}
	for node := 1; node <= 3; node++ {
		if hops, ok := reached[node]; !ok {
			t.Errorf("node %d not reached", node)
		} else if hops != node {
			t.Errorf("node %d reached in %d hops, want %d", node, hops, node)
		}
	}
	for node := 4; node <= 7; node++ {
		if _, ok := reached[node]; ok {
			t.Errorf("node %d beyond TTL reached", node)
		}
	}
	if _, ok := reached[0]; ok {
		t.Error("origin received its own flood")
	}
}

func TestFloodEachNodeReceivesOnce(t *testing.T) {
	// Dense cluster: everyone in range of everyone.
	pts := make([]geo.Point, 10)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 10, Y: 0}
	}
	k := sim.NewKernel()
	net, err := New(DefaultConfig(), k, &staticSource{pts: pts}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for i := 0; i < 10; i++ {
		i := i
		net.SetReceiver(i, func(*sim.Kernel, int, protocol.Message, Meta) { counts[i]++ })
	}
	if err := net.Flood(0, 8, testMsg(protocol.KindIR)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	for i := 1; i < 10; i++ {
		if counts[i] != 1 {
			t.Errorf("node %d received flood %d times", i, counts[i])
		}
	}
	if counts[0] != 0 {
		t.Error("origin received own flood")
	}
}

func TestFloodTransmissionAccounting(t *testing.T) {
	h := newHarness(t, 4, false)
	// Chain 0-1-2-3, TTL 8: nodes 0,1,2,3 all transmit except... node 3
	// has no unvisited neighbours but still rebroadcasts per the flooding
	// rule (it cannot know). Our implementation transmits at every node
	// that received with TTL left, so 0,1,2,3 -> 4 transmissions... node 3
	// receives with ttlLeft=5 and rebroadcasts too.
	if err := h.net.Flood(0, 8, testMsg(protocol.KindIR)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	got := h.net.Traffic().Tx(protocol.KindIR)
	if got != 4 {
		t.Errorf("flood transmissions = %d, want 4 (every reached node rebroadcasts)", got)
	}
}

func TestFloodValidation(t *testing.T) {
	h := newHarness(t, 3, false)
	if err := h.net.Flood(0, 0, testMsg(protocol.KindIR)); err == nil {
		t.Error("zero TTL accepted")
	}
	if err := h.net.Flood(9, 3, testMsg(protocol.KindIR)); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if err := h.net.Flood(0, 3, protocol.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
}

func TestFloodSkipsDownNodes(t *testing.T) {
	h := newHarness(t, 5, true)
	// Node 2 down: flood from 0 cannot cross it on the chain.
	if err := h.churn.ForceState(h.k, 2, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Flood(0, 8, testMsg(protocol.KindIR)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	for _, d := range h.got {
		if d.node >= 2 {
			t.Errorf("node %d reached across down bridge", d.node)
		}
	}
}

// star returns a hub (node 0) with k leaves around it, 200 m out: every
// leaf hears the hub, whatever the leaves hear of each other. The tests
// on it run with (disabled) churn so they can force nodes down.
func star(k int) *staticSource {
	pts := make([]geo.Point, k+1)
	for i := 1; i <= k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		pts[i] = geo.Point{X: 1000 + 200*math.Cos(a), Y: 1000 + 200*math.Sin(a)}
	}
	pts[0] = geo.Point{X: 1000, Y: 1000}
	return &staticSource{pts: pts}
}

// TestBroadcastIsOneKernelEvent: the hub's TTL-1 broadcast to K leaves is
// one frame heard by all of them at one instant — one kernel event, K
// deliveries in neighbour-row order.
func TestBroadcastIsOneKernelEvent(t *testing.T) {
	const leaves = 9
	h := newHarnessOn(t, star(leaves), true)
	if err := h.net.Flood(0, 1, testMsg(protocol.KindInvalidation)); err != nil {
		t.Fatal(err)
	}
	if got := h.k.Pending(); got != 1 {
		t.Fatalf("broadcast to %d neighbours queued %d kernel events, want 1", leaves, got)
	}
	h.k.Run()
	if got := h.k.EventsFired(); got != 1 {
		t.Errorf("broadcast fired %d kernel events, want 1", got)
	}
	if len(h.got) != leaves {
		t.Fatalf("%d deliveries, want %d", len(h.got), leaves)
	}
	for i, d := range h.got {
		if want := int(h.net.Graph().Neighbors(0)[i]); d.node != want {
			t.Errorf("delivery %d went to node %d, want neighbour-row order (node %d)", i, d.node, want)
		}
		if d.meta.Hops != 1 || d.meta.At != h.got[0].meta.At {
			t.Errorf("delivery %d: hops %d at %v, want 1 hop at %v", i, d.meta.Hops, d.meta.At, h.got[0].meta.At)
		}
	}
}

// TestBroadcastHearerDownInFlight: a leaf that goes down while the frame
// is in the air is dropped as disconnected; its siblings on the same
// broadcast record still deliver, in order.
func TestBroadcastHearerDownInFlight(t *testing.T) {
	const leaves, victim = 6, 3
	h := newHarnessOn(t, star(leaves), true)
	if err := h.net.Flood(0, 1, testMsg(protocol.KindInvalidation)); err != nil {
		t.Fatal(err)
	}
	if err := h.churn.ForceState(h.k, victim, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	var heard []int
	for _, d := range h.got {
		heard = append(heard, d.node)
	}
	if want := []int{1, 2, 4, 5, 6}; !slices.Equal(heard, want) {
		t.Errorf("deliveries went to %v, want %v", heard, want)
	}
	if got := h.net.Traffic().DroppedByCause(protocol.KindInvalidation, stats.DropDisconnected); got != 1 {
		t.Errorf("%d receptions dropped as disconnected, want 1", got)
	}
}

// TestBroadcastRecordHeldThroughWalk: receivers flood and unicast from
// inside the walk over a broadcast's hearers. The record being walked
// must stay out of the pool — and keep its hearers and hop budget — until
// the last hearer is done, then return exactly once; so must the flood's
// state, which the rebroadcasts of the walk keep drawing on.
func TestBroadcastRecordHeldThroughWalk(t *testing.T) {
	const leaves = 8
	h := newHarnessOn(t, star(leaves), true)
	n := h.net
	rec := n.floodRxs.New() // a known record for the hub's broadcast to draw
	var wide, echoes int
	for node := 0; node <= leaves; node++ {
		if err := n.SetReceiver(node, func(_ *sim.Kernel, node int, msg protocol.Message, meta Meta) {
			if msg.Kind != protocol.KindInvalidation {
				echoes++
				return
			}
			wide++
			if meta.Hops != 1 {
				return // a rebroadcast reached a leaf the hub's frame already had: impossible here
			}
			if slices.Contains(pooled(&n.floodRxs), rec) {
				t.Errorf("node %d: the record being walked is back in the pool", node)
			}
			if rec.from != 0 || rec.ttlLeft != 2 || len(rec.to) != leaves {
				t.Errorf("node %d: record overwritten mid-walk: from %d ttl %d hearers %v", node, rec.from, rec.ttlLeft, rec.to)
			}
			if err := n.Flood(node, 1, testMsg(protocol.KindIR)); err != nil {
				t.Error(err)
			}
			if err := n.Unicast(node, 0, testMsg(protocol.KindPollAckA)); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		wide, echoes = 0, 0
		// Put rec on top of the pool so this round's hub broadcast draws it.
		for _, r := range takeAll(&n.floodRxs) {
			if r != rec {
				n.floodRxs.Put(r)
			}
		}
		n.floodRxs.Put(rec)
		if err := n.Flood(0, 2, testMsg(protocol.KindInvalidation)); err != nil {
			t.Fatal(err)
		}
		h.k.Run()
		if wide != leaves {
			t.Fatalf("round %d: wide flood delivered %d times, want once per leaf (%d)", round, wide, leaves)
		}
		if echoes < 2*leaves {
			t.Fatalf("round %d: %d echo deliveries; the receivers' own sends did not run", round, echoes)
		}
		seenRx := make(map[*floodRx]bool)
		for _, r := range pooled(&n.floodRxs) {
			if seenRx[r] {
				t.Fatalf("round %d: broadcast record pooled twice", round)
			}
			seenRx[r] = true
			if r.st != nil || len(r.to) != 0 {
				t.Fatalf("round %d: pooled record still holds state %p, hearers %v", round, r.st, r.to)
			}
		}
		if !seenRx[rec] {
			t.Fatalf("round %d: the hub's record never came back", round)
		}
		seenSt := make(map[*floodState]bool)
		for _, st := range pooled(&n.floodStates) {
			if seenSt[st] {
				t.Fatalf("round %d: flood state pooled twice", round)
			}
			seenSt[st] = true
			if st.pending != 0 {
				t.Fatalf("round %d: pooled flood state has %d landings outstanding", round, st.pending)
			}
		}
	}
	// Every round ran 1 wide + leaves echo floods, all drained: the pool
	// holds exactly the states that were ever live at once.
	if got := len(pooled(&n.floodStates)); got != leaves+1 {
		t.Errorf("flood pool holds %d states after %d concurrent floods per round, want %d", got, leaves+1, leaves+1)
	}
}

func TestEnergyChargedPerTransmission(t *testing.T) {
	k := sim.NewKernel()
	n := 3
	bats := make([]*energy.Battery, n)
	for i := range bats {
		b, err := energy.NewBattery(energy.Config{Capacity: 1000, TxCost: 1, RxCost: 1})
		if err != nil {
			t.Fatal(err)
		}
		bats[i] = b
	}
	net, err := New(DefaultConfig(), k, chain(n), nil, bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 2, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	tx0, _ := bats[0].Counters()
	tx1, rx1 := bats[1].Counters()
	_, rx2 := bats[2].Counters()
	if tx0 != 1 || tx1 != 1 || rx1 != 1 || rx2 != 1 {
		t.Errorf("counters tx0=%d tx1=%d rx1=%d rx2=%d, want 1,1,1,1", tx0, tx1, rx1, rx2)
	}
}

func TestDepletedNodeIsDown(t *testing.T) {
	k := sim.NewKernel()
	bats := make([]*energy.Battery, 3)
	for i := range bats {
		b, _ := energy.NewBattery(energy.Config{Capacity: 1, TxCost: 10})
		bats[i] = b
	}
	net, err := New(DefaultConfig(), k, chain(3), nil, bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	bats[1].SpendTx(0) // drain the bridge node
	if !net.Up(0) || net.Up(1) {
		t.Fatal("Up() does not reflect battery state")
	}
	delivered := false
	net.SetReceiver(2, func(*sim.Kernel, int, protocol.Message, Meta) { delivered = true })
	if err := net.Unicast(0, 2, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered {
		t.Fatal("message routed through depleted node")
	}
}

// snapshots counts the topology snapshots n has taken, one per Graph()
// cache miss: the plane's one full build plus its kinetic samples.
func snapshots(n *Network) uint64 {
	st := n.TopologyStats()
	return st.FullRebuilds + st.KineticSamples
}

func TestGraphCachingAndChurnInvalidation(t *testing.T) {
	h := newHarness(t, 3, true)
	g1 := h.net.Graph()
	r1 := snapshots(h.net)
	if r1 == 0 {
		t.Fatal("first Graph() did not rebuild")
	}
	g2 := h.net.Graph()
	if snapshots(h.net) != r1 {
		t.Fatal("same-instant Graph() rebuilt (cache miss)")
	}
	if g1 != g2 {
		t.Fatal("same-instant graphs differ")
	}
	if !g1.Up(1) {
		t.Fatal("fresh graph shows up node down")
	}
	if err := h.churn.ForceState(h.k, 1, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	g3 := h.net.Graph()
	if snapshots(h.net) != r1+1 {
		t.Fatalf("churn flip did not invalidate cached graph (rebuilds %d, want %d)",
			snapshots(h.net), r1+1)
	}
	if g3.Up(1) {
		t.Fatal("rebuilt graph shows down node up")
	}
}

func TestContentMessageCarriesPayload(t *testing.T) {
	h := newHarness(t, 3, false)
	c := data.Copy{ID: 1, Version: 5, Value: data.ValueFor(1, 5)}
	msg := protocol.Message{Kind: protocol.KindUpdate, Item: 1, Version: 5, Origin: 0, Copy: c}
	if err := h.net.Unicast(0, 2, msg); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 1 {
		t.Fatalf("deliveries = %d", len(h.got))
	}
	if h.got[0].msg.Copy != c {
		t.Errorf("payload mangled: %+v", h.got[0].msg.Copy)
	}
	// Content messages are bigger: bytes ledger reflects payload.
	if got := h.net.Traffic().TotalBytes(); got < 2*1024 {
		t.Errorf("TotalBytes = %d, want >= 2KiB for 2-hop content", got)
	}
}

func TestDeliveryLatencyGrowsWithHops(t *testing.T) {
	h := newHarness(t, 6, false)
	h.net.Unicast(0, 1, testMsg(protocol.KindPoll))
	h.net.Unicast(0, 5, testMsg(protocol.KindPollAckA))
	h.k.Run()
	var near, far time.Duration
	for _, d := range h.got {
		switch d.node {
		case 1:
			near = d.meta.At
		case 5:
			far = d.meta.At
		}
	}
	if near == 0 || far == 0 {
		t.Fatal("missing deliveries")
	}
	if far <= near {
		t.Errorf("5-hop latency %v <= 1-hop latency %v", far, near)
	}
}

func TestDeterministicDeliveryTimes(t *testing.T) {
	run := func() time.Duration {
		k := sim.NewKernel(sim.WithSeed(7))
		net, err := New(DefaultConfig(), k, chain(5), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		net.SetReceiver(4, func(_ *sim.Kernel, _ int, _ protocol.Message, m Meta) { at = m.At })
		net.Unicast(0, 4, testMsg(protocol.KindPoll))
		k.Run()
		return at
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("delivery time differs across same-seed runs: %v vs %v", a, b)
	}
}

func TestActivityCountsTxAndRx(t *testing.T) {
	h := newHarness(t, 4, false)
	if err := h.net.Unicast(0, 3, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	// Chain 0-1-2-3: node 0 transmits once (1), nodes 1,2 receive and
	// forward (2 each), node 3 receives (1).
	wants := []uint64{1, 2, 2, 1}
	for nd, want := range wants {
		if got := h.net.Activity(nd); got != want {
			t.Errorf("Activity(%d) = %d, want %d", nd, got, want)
		}
	}
	if h.net.Activity(-1) != 0 || h.net.Activity(99) != 0 {
		t.Error("out-of-range Activity not zero")
	}
}

func TestHopDelayGrowsWithSize(t *testing.T) {
	h := newHarness(t, 2, false)
	small := h.net.hopDelay(32)
	large := h.net.hopDelay(32 + 1024)
	// Jitter is bounded by JitterMax (1ms); the 1KB payload adds ~4ms at
	// 2 Mbps, so the ordering is robust.
	if large <= small {
		t.Errorf("hopDelay(1KB) = %v <= hopDelay(32B) = %v", large, small)
	}
}

// TestTracerSeesUnicastAndFloodDeliveries pins the delivery observer
// hook (the telemetry hub and the conformance oracle hang off it): it
// sees a routed unicast with its hop count and every flood reception.
func TestTracerSeesUnicastAndFloodDeliveries(t *testing.T) {
	h := newHarness(t, 3, false)
	var sawUnicast, sawFlood bool
	h.net.SetTracer(func(_ time.Duration, node int, msg protocol.Message, meta Meta) {
		if msg.Kind == protocol.KindApply && !meta.Flood && node == 2 && meta.Hops == 2 {
			sawUnicast = true
		}
		if msg.Kind == protocol.KindIR && meta.Flood {
			sawFlood = true
		}
	})
	if err := h.net.Unicast(0, 2, testMsg(protocol.KindApply)); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Flood(0, 2, testMsg(protocol.KindIR)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if !sawUnicast {
		t.Error("unicast delivery not observed with hop count")
	}
	if !sawFlood {
		t.Error("flood delivery not observed")
	}
}

// grid returns w×h nodes spaced 150 m apart: with the default 250 m range
// a node hears its eight surrounding nodes.
func grid(w, h int) *staticSource {
	pts := make([]geo.Point, 0, w*h)
	for y := range h {
		for x := range w {
			pts = append(pts, geo.Point{X: float64(x) * 150, Y: float64(y) * 150})
		}
	}
	return &staticSource{pts: pts}
}

// TestSteadyStateFloodDoesNotAllocate pins the flood hop's storage: once
// the pools hold the records a wave needs, each sized for its sender's
// neighbour row, flooding a grid from a corner, an edge and the centre
// allocates nothing.
func TestSteadyStateFloodDoesNotAllocate(t *testing.T) {
	h := newHarnessOn(t, grid(10, 10), false)
	msg := testMsg(protocol.KindInvalidation)
	waves := func() {
		for _, origin := range []int{0, 45, 55} {
			if err := h.net.Flood(origin, 16, msg); err != nil {
				t.Fatal(err)
			}
			h.k.Run()
			h.got = h.got[:0]
		}
	}
	waves() // warm up: the route cache, the pools and h.got
	if tx := h.net.Traffic().Tx(protocol.KindInvalidation); tx != 3*100 {
		t.Fatalf("%d transmissions in three floods, want every node to rebroadcast each", tx)
	}
	// The count is process-wide, and the runtime now and then allocates
	// once on its own; so the floods are measured twice: an allocation in
	// the floods repeats in both rounds, the runtime's does not.
	measure := func() float64 {
		return testing.AllocsPerRun(1, func() {
			for range 20 {
				waves()
			}
		})
	}
	if first, second := measure(), measure(); first != 0 && second != 0 {
		t.Errorf("60 steady-state floods allocate %.0f and then %.0f objects, want 0", first, second)
	}
}
