package netsim

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// runCheckedScenario drives a mobile, churning 24-node network through
// two simulated minutes of mixed unicast and flood traffic and calls
// sample at every event time; sample reports whether it checked a new
// snapshot sample. Routing reads only the snapshot's rows and route
// answers, so a scenario whose every sample matches the references
// delivers what a per-sample full rebuild with per-call BFS would.
func runCheckedScenario(t *testing.T, sample func(*topoHarness) bool) {
	t.Helper()
	const (
		n       = 24
		horizon = 2 * time.Minute
	)
	h := newTopoHarnessOn(t, n, 7, horizon, waypoints(1500))
	var unicasts, floods int
	for i := 0; i < n; i++ {
		if err := h.net.SetReceiver(i, func(_ *sim.Kernel, _ int, _ protocol.Message, meta Meta) {
			if meta.Flood {
				floods++
			} else {
				unicasts++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Workload: a unicast every 500ms between pseudo-random endpoints and
	// a TTL-4 flood every 3s, both drawn from a dedicated kernel stream.
	wl := h.k.Stream("workload")
	seq := uint64(0)
	if _, err := h.k.Every(500*time.Millisecond, "test.unicast", func(*sim.Kernel) {
		seq++
		src, dst := wl.Intn(n), wl.Intn(n)
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1, Origin: src, Seq: seq}
		if err := h.net.Unicast(src, dst, msg); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.k.Every(3*time.Second, "test.flood", func(*sim.Kernel) {
		seq++
		origin := wl.Intn(n)
		msg := protocol.Message{Kind: protocol.KindInvalidation, Item: 2, Version: 2, Origin: origin, Seq: seq}
		if err := h.net.Flood(origin, 4, msg); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for {
		at, ok := h.k.NextEventAt()
		if !ok || at > horizon {
			break
		}
		h.k.RunUntil(at)
		if sample(h) {
			samples++
		}
	}
	if unicasts == 0 || floods == 0 {
		t.Fatalf("%d unicast and %d flood deliveries; workload broken", unicasts, floods)
	}
	if want := int(horizon / DefaultConfig().TopologyRefresh); samples < want {
		t.Fatalf("%d samples checked, want at least one per refresh (%d)", samples, want)
	}
}

// TestKineticIsBehaviourallyInvisible is the whole-scenario gate for the
// kinetic plane: at every event time of the seeded scenario, Graph()
// schedules no kernel event, and every new sample's Up flags and rows are
// byte-identical to a from-scratch build (topoHarness.checkRows).
func TestKineticIsBehaviourallyInvisible(t *testing.T) {
	runCheckedScenario(t, func(h *topoHarness) bool {
		_, fresh := h.checkRows(t)
		return fresh
	})
}

// TestRouteCacheIsBehaviourallyInvisible is the whole-scenario gate for
// the memoized route tables: at every new sample of the seeded scenario,
// Hops and NextHop on all pairs equal a fresh BFS over the snapshot's
// rows (checkRoutes), with the tables carried across samples by
// incremental repair while the traffic fills them in between.
func TestRouteCacheIsBehaviourallyInvisible(t *testing.T) {
	var seen uint64
	runCheckedScenario(t, func(h *topoHarness) bool {
		g := h.net.Graph()
		if snapshots(h.net) == seen {
			return false
		}
		seen = snapshots(h.net)
		checkRoutes(t, h.k.Now(), g, 1, 1)
		return true
	})
}

// TestFloodIDsSequenceAndGroupDeliveries: each Flood call gets the next
// nonzero id, every delivery of one flood carries that id, and unicast
// deliveries carry zero.
func TestFloodIDsSequenceAndGroupDeliveries(t *testing.T) {
	h := newHarness(t, 5, false)
	if err := h.net.Flood(0, 4, testMsg(protocol.KindInvalidation)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if err := h.net.Flood(2, 4, testMsg(protocol.KindGetNew)); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 1, testMsg(protocol.KindPoll)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	var first, second, unicasts int
	for _, d := range h.got {
		switch {
		case !d.meta.Flood:
			unicasts++
			if d.meta.FloodID != 0 {
				t.Errorf("unicast delivery carries flood id %d", d.meta.FloodID)
			}
		case d.msg.Kind == protocol.KindInvalidation:
			first++
			if d.meta.FloodID != 1 {
				t.Errorf("first flood delivery has id %d, want 1", d.meta.FloodID)
			}
		default:
			second++
			if d.meta.FloodID != 2 {
				t.Errorf("second flood delivery has id %d, want 2", d.meta.FloodID)
			}
		}
	}
	if first == 0 || second == 0 || unicasts == 0 {
		t.Fatalf("workload incomplete: first=%d second=%d unicasts=%d", first, second, unicasts)
	}
}

// TestFloodStateIsPooled: sequential floods must recycle the pooled
// duplicate-suppression state rather than growing the pool.
func TestFloodStateIsPooled(t *testing.T) {
	h := newHarness(t, 6, false)
	for i := 0; i < 4; i++ {
		if err := h.net.Flood(0, 5, testMsg(protocol.KindInvalidation)); err != nil {
			t.Fatal(err)
		}
		h.k.Run()
		parked := pooled(&h.net.floodStates)
		if len(parked) != 1 {
			t.Fatalf("after flood %d: pool holds %d states, want 1", i+1, len(parked))
		}
		st := parked[0]
		for v, seen := range st.visited {
			if seen {
				t.Fatalf("pooled state not cleared: node %d still visited", v)
			}
		}
		if st.pending != 0 {
			t.Fatalf("pooled state has %d pending receptions", st.pending)
		}
	}
}
