package wire

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// boot builds n transports on loopback with a shared peer table. The
// returned start function launches the read loops and clocks; install
// receivers first, as a daemon would (receivers are written before any
// other goroutine exists, so they need no locking afterwards).
func boot(t *testing.T, n int) ([]*Transport, []*Clock, func()) {
	t.Helper()
	conns := make([]*net.UDPConn, n)
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		peers[i] = conn.LocalAddr().String()
	}
	trs := make([]*Transport, n)
	clocks := make([]*Clock, n)
	for i := 0; i < n; i++ {
		k := sim.NewKernel(sim.WithSeed(int64(i + 1)))
		clocks[i] = NewClock(k)
		tr, err := NewTransport(TransportConfig{
			Self: i, Nodes: n, Peers: peers, Conn: conns[i],
		}, clocks[i], stats.NewTraffic())
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	t.Cleanup(func() {
		for i := range trs {
			clocks[i].Stop(time.Second)
			trs[i].Close()
		}
	})
	start := func() {
		for i := range trs {
			trs[i].Run()
			clocks[i].Start()
		}
	}
	return trs, clocks, start
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPUnicastDelivers(t *testing.T) {
	trs, _, start := boot(t, 2)
	got := make(chan protocol.Message, 1)
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		if nd != 1 || meta.Flood || meta.Hops != 1 || meta.FloodID != 0 {
			t.Errorf("bad delivery: nd=%d meta=%+v", nd, meta)
		}
		got <- msg
	})
	start()
	want := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0, Seq: 42}
	if err := trs[0].Unicast(0, 1, want); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Kind != want.Kind || msg.Seq != want.Seq || msg.Item != want.Item {
			t.Fatalf("delivered %+v, sent %+v", msg, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unicast never delivered")
	}
}

func TestUDPFloodReachesAllButOrigin(t *testing.T) {
	trs, _, start := boot(t, 4)
	got := make(chan int, 8)
	for i := 1; i < 4; i++ {
		i := i
		trs[i].SetReceiver(i, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
			if !meta.Flood || meta.FloodID == 0 {
				t.Errorf("node %d: flood delivered with meta %+v", i, meta)
			}
			got <- i
		})
	}
	origin := make(chan int, 1)
	trs[0].SetReceiver(0, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		origin <- nd
	})
	start()
	msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 3}
	if err := trs[0].Flood(0, 8, msg); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for len(seen) < 3 {
		select {
		case i := <-got:
			seen[i] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("flood reached only %v", seen)
		}
	}
	select {
	case <-origin:
		t.Fatal("origin received its own flood")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUDPRejectsForeignSendsAndBadPeers(t *testing.T) {
	trs, _, start := boot(t, 2)
	start()
	msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 1}
	if err := trs[0].Unicast(1, 0, msg); err == nil {
		t.Error("unicast from a foreign node accepted")
	}
	if err := trs[0].Flood(1, 4, msg); err == nil {
		t.Error("flood from a foreign node accepted")
	}
	if err := trs[0].Unicast(0, 7, msg); err == nil {
		t.Error("unicast to an unknown peer accepted")
	}
	if err := trs[0].Flood(0, 0, msg); err == nil {
		t.Error("flood with zero ttl accepted")
	}
	if err := trs[0].Unicast(0, 1, protocol.Message{}); err == nil {
		t.Error("invalid message accepted")
	}
}

func TestUDPDropsGarbageAndMisaddressed(t *testing.T) {
	trs, _, start := boot(t, 2)
	start()
	raw, err := net.Dial("udp", trs[1].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Garbage datagram: counted as a decode error, never delivered.
	if _, err := raw.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "decode error count", func() bool { return trs[1].DecodeErrors() == 1 })

	// Well-formed frame addressed to a different node: dropped.
	buf, err := protocol.MarshalFrame(protocol.Frame{
		From: 0, To: 5, Seq: 1,
		Msg: protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "misdeliver count", func() bool { return trs[1].Misdelivers() == 1 })
}

func TestUDPInterfaceSemantics(t *testing.T) {
	trs, clocks, start := boot(t, 3)
	start()
	if trs[0].Len() != 3 {
		t.Fatalf("len = %d", trs[0].Len())
	}
	if trs[0].Kernel() != clocks[0].k {
		t.Fatal("kernel mismatch")
	}
	if !trs[0].Up(1) || !trs[0].Reachable(0, 2) {
		t.Fatal("listed peers must be up and reachable")
	}
	if trs[0].Up(9) || trs[0].Reachable(0, 9) {
		t.Fatal("unlisted peers must be down")
	}
	if err := trs[0].SetReceiver(99, nil); err == nil {
		t.Fatal("out-of-range receiver accepted")
	}
}

// kread runs f on the clock's kernel goroutine and waits for it — the
// race-free way to sample kernel-confined counters mid-run.
func kread(t *testing.T, c *Clock, f func()) {
	t.Helper()
	done := make(chan struct{})
	if !c.Inject(func(k *sim.Kernel) { f(); close(done) }) {
		t.Fatal("clock stopped")
	}
	<-done
}

func TestUDPFloodSurvivesDeadPeer(t *testing.T) {
	trs, _, start := boot(t, 3)
	// Peer 1's address refuses every write; the fan-out must still reach
	// peer 2 and account the failure as a peer-down drop.
	dead := trs[0].addrs[1].String()
	attempts := 0
	real := trs[0].writeTo
	trs[0].writeTo = func(b []byte, addr *net.UDPAddr) (int, error) {
		if addr.String() == dead {
			attempts++
			return 0, errors.New("simulated EPERM")
		}
		return real(b, addr)
	}
	got := make(chan int, 4)
	trs[2].SetReceiver(2, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		got <- nd
	})
	start()
	msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: 1}
	if err := trs[0].Flood(0, 4, msg); err != nil {
		t.Fatalf("flood with one dead peer must succeed, got %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("flood never reached the live peer")
	}
	if attempts != 2 {
		t.Fatalf("dead peer written %d times, want 2 (one bounded retry)", attempts)
	}
	if d := trs[0].traffic.TotalDroppedByCause(stats.DropPeerDown); d != 1 {
		t.Fatalf("peer-down drops = %d, want 1", d)
	}
}

func TestUDPUnicastRetriesThenReportsDrop(t *testing.T) {
	trs, _, start := boot(t, 2)
	attempts := 0
	trs[0].writeTo = func(b []byte, addr *net.UDPAddr) (int, error) {
		attempts++
		return 0, errors.New("simulated ENOBUFS")
	}
	start()
	msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0}
	if err := trs[0].Unicast(0, 1, msg); err == nil {
		t.Fatal("unicast past a failed retry must report the error")
	}
	if attempts != 2 {
		t.Fatalf("failed send attempted %d times, want 2", attempts)
	}
	if d := trs[0].traffic.TotalDroppedByCause(stats.DropPeerDown); d != 1 {
		t.Fatalf("peer-down drops = %d, want 1", d)
	}
}

func TestUDPReadLoopSurvivesTransientErrors(t *testing.T) {
	trs, _, start := boot(t, 2)
	// The first reads fail with a transient error (the shape of an ICMP
	// port-unreachable from a crashed peer); the loop must survive them
	// and still deliver what arrives afterwards.
	var fails atomic.Int32
	fails.Store(3)
	real := trs[1].read
	trs[1].read = func(b []byte) (int, error) {
		if fails.Add(-1) >= 0 {
			return 0, &net.OpError{Op: "read", Net: "udp", Err: errors.New("connection refused")}
		}
		return real(b)
	}
	got := make(chan protocol.Message, 1)
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		got <- msg
	})
	start()
	if err := trs[0].Unicast(0, 1, protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Seq != 9 {
			t.Fatalf("delivered %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read loop died on a transient error")
	}
	if e := trs[1].ReadErrors(); e != 3 {
		t.Fatalf("read errors = %d, want 3", e)
	}
}

func TestUDPPeerCrashContinuedDelivery(t *testing.T) {
	trs, clocks, start := boot(t, 3)
	got := make(chan int, 8)
	trs[2].SetReceiver(2, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		got <- nd
	})
	start()
	// Crash node 1 mid-run: stop its clock and close its socket cold.
	clocks[1].Stop(time.Second)
	trs[1].Close()
	// Node 0 keeps flooding; node 2 must keep receiving despite the
	// corpse in the peer table.
	for i := 0; i < 3; i++ {
		msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: 0, Version: data.Version(i + 1)}
		if err := trs[0].Flood(0, 4, msg); err != nil {
			t.Fatalf("flood %d after peer crash: %v", i, err)
		}
	}
	for seen := 0; seen < 3; {
		select {
		case <-got:
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/3 floods delivered after peer crash", seen)
		}
	}
}

func TestUDPChaosPartitionDropsAndAccounts(t *testing.T) {
	trs, clocks, start := boot(t, 2)
	script := &faults.Config{
		Seed: 3,
		Partitions: []faults.Partition{
			{Start: 0, End: faults.Duration(time.Hour), Islands: [][]int{{0}, {1}}},
		},
	}
	ch, err := NewChaos(script, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs[1].SetChaos(ch)
	delivered := make(chan struct{}, 1)
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		delivered <- struct{}{}
	})
	start()
	if err := trs[0].Unicast(0, 1, protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0}); err != nil {
		t.Fatal(err)
	}
	var drops uint64
	waitFor(t, "partition drop", func() bool {
		kread(t, clocks[1], func() { drops = trs[1].traffic.TotalDroppedByCause(stats.DropPartition) })
		return drops == 1
	})
	select {
	case <-delivered:
		t.Fatal("partitioned frame delivered")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUDPChaosDelayDefersDelivery(t *testing.T) {
	trs, _, start := boot(t, 2)
	script := &faults.Config{Seed: 3, Delay: Duration(150 * time.Millisecond)}
	ch, err := NewChaos(script, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs[1].SetChaos(ch)
	got := make(chan time.Time, 1)
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		got <- time.Now()
	})
	start()
	sent := time.Now()
	if err := trs[0].Unicast(0, 1, protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if lat := at.Sub(sent); lat < 100*time.Millisecond {
			t.Fatalf("chaos delay of 150ms delivered after only %v", lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed frame never delivered")
	}
}

// TestUDPUnlistedSenderIsMisdelivered: a well-formed frame from a node id
// outside the peer table is a misdelivery, counted and dropped on the
// read loop, before the chaos plan, which indexes its per-sender loss
// chains by that id, can see it.
func TestUDPUnlistedSenderIsMisdelivered(t *testing.T) {
	trs, _, start := boot(t, 2)
	// A loss model is installed, so the plan consults per-sender chains,
	// but it never leaves its lossless good state.
	script := &faults.Config{Seed: 3, Loss: faults.GilbertParams{PBadToGood: 1, LossBad: 1}}
	ch, err := NewChaos(script, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs[1].SetChaos(ch)
	got := make(chan protocol.Message, 1)
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		got <- msg
	})
	start()
	raw, err := net.Dial("udp", trs[1].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	buf, err := protocol.MarshalFrame(protocol.Frame{
		From: 7, To: 1, Seq: 1,
		Msg: protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "misdeliver count", func() bool { return trs[1].Misdelivers() == 1 })
	// The kernel goroutine survived: a listed sender's frame gets through.
	if err := trs[0].Unicast(0, 1, protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Seq != 5 {
			t.Fatalf("delivered %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("listed sender's frame never delivered")
	}
}

// TestWireSteadyStateDoesNotAllocate: once warmed up, two transports
// exchanging unicasts and floods allocate nothing per delivered frame —
// clean, and under a delay + duplication campaign. Mallocs are counted
// process-wide, so the read loops and clock goroutines count too.
func TestWireSteadyStateDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("times a few thousand loopback datagrams")
	}
	for _, tc := range []struct {
		name  string
		chaos *faults.Config
	}{
		{"clean", nil},
		{"delay+dup", &faults.Config{Seed: 5, Delay: Duration(time.Millisecond), DupProb: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs, clocks, start := boot(t, 2)
			var delivered atomic.Uint64
			count := func(*sim.Kernel, int, protocol.Message, netsim.Meta) { delivered.Add(1) }
			sends := make([]func(*sim.Kernel), 2)
			for i, tr := range trs {
				if tc.chaos != nil {
					ch, err := NewChaos(tc.chaos, i, 2, 0)
					if err != nil {
						t.Fatal(err)
					}
					tr.SetChaos(ch)
				}
				tr.SetReceiver(i, count)
				tr, peer := tr, 1-i
				poll := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: i, Version: 3, Seq: 9}
				inv := protocol.Message{Kind: protocol.KindInvalidation, Item: 0, Origin: i, Version: 4}
				sends[i] = func(*sim.Kernel) {
					if err := tr.Unicast(i, peer, poll); err != nil {
						panic(err)
					}
					if err := tr.Flood(i, 2, inv); err != nil {
						panic(err)
					}
				}
			}
			start()
			// round sends one unicast and one flood each way, then waits
			// for the four originals.
			round := func() {
				want := delivered.Load() + 4
				for i, c := range clocks {
					if !c.Inject(sends[i]) {
						t.Fatal("clock stopped")
					}
				}
				for deadline := time.Now().Add(5 * time.Second); delivered.Load() < want; {
					if time.Now().After(deadline) {
						t.Fatal("round never delivered")
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			for i := 0; i < 300; i++ {
				round()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d0 := delivered.Load()
			for i := 0; i < 600; i++ {
				round()
			}
			runtime.ReadMemStats(&m1)
			frames := delivered.Load() - d0
			perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(frames)
			t.Logf("%d frames delivered, %d mallocs, %.4f per frame", frames, m1.Mallocs-m0.Mallocs, perFrame)
			if perFrame > 0.05 {
				t.Fatalf("%.4f mallocs per delivered frame, want <= 0.05", perFrame)
			}
		})
	}
}

// TestChaosRecordsDeliverAsPlanned crosses receive records between the
// read loop and the kernel goroutine under delay, jitter and duplication
// (run it under -race): each frame must be delivered exactly 1 + dup
// times, where dup replays the campaign's plan for that reception.
func TestChaosRecordsDeliverAsPlanned(t *testing.T) {
	const frames = 200
	script := &faults.Config{Seed: 9, Delay: Duration(time.Millisecond), Jitter: Duration(2 * time.Millisecond), DupProb: 0.5}
	trs, clocks, start := boot(t, 2)
	ch, err := NewChaos(script, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	trs[1].SetChaos(ch)
	counts := make([]atomic.Int32, frames+1)
	var total atomic.Int32
	trs[1].SetReceiver(1, func(k *sim.Kernel, nd int, msg protocol.Message, meta netsim.Meta) {
		counts[msg.Seq].Add(1)
		total.Add(1)
	})
	start()
	// One frame at a time, each sent once its original has landed, so the
	// receptions happen in Seq order and the plans can be replayed.
	replay, err := NewChaos(script, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, frames+1)
	var wantTotal int32
	for seq := 1; seq <= frames; seq++ {
		want[seq] = 1
		if replay.Plan(0, 0).Dup {
			want[seq] = 2
		}
		wantTotal += want[seq]
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0, Seq: uint64(seq)}
		if !clocks[0].Inject(func(*sim.Kernel) {
			if err := trs[0].Unicast(0, 1, msg); err != nil {
				t.Error(err)
			}
		}) {
			t.Fatal("clock stopped")
		}
		waitFor(t, "delivery", func() bool { return counts[seq].Load() > 0 })
	}
	waitFor(t, "every planned delivery", func() bool { return total.Load() >= wantTotal })
	time.Sleep(20 * time.Millisecond) // any extra delivery would land by now
	for seq := 1; seq <= frames; seq++ {
		if got := counts[seq].Load(); got != want[seq] {
			t.Errorf("frame %d delivered %d times, the campaign planned %d", seq, got, want[seq])
		}
	}
	if got := total.Load(); got != wantTotal {
		t.Errorf("%d deliveries, the campaign planned %d", got, wantTotal)
	}
}
