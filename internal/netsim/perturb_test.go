package netsim

import (
	"sort"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// TestFloodTTLBoundary pins the paper's TTL-scoped flood semantics on a
// line topology: a flood with TTL t must reach every node at most t hops
// from the origin — including the node exactly t hops away — and no node
// beyond. The deepest rebroadcast happens at hop t-1 with one hop of
// budget left, which is precisely the delivery to the hop-t node.
func TestFloodTTLBoundary(t *testing.T) {
	const nodes = 9 // chain 0..8: node i sits exactly i hops from node 0
	tests := []struct {
		name string
		ttl  int
		want []int // node ids that must receive the flood, exactly
	}{
		{"ttl1", 1, []int{1}},
		{"ttl2", 2, []int{1, 2}},
		{"ttl equals farthest hop", 8, []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{"ttl beyond farthest hop", 9, []int{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := newHarness(t, nodes, false)
			if err := h.net.Flood(0, tt.ttl, testMsg(protocol.KindInvalidation)); err != nil {
				t.Fatal(err)
			}
			h.k.Run()
			var got []int
			for _, d := range h.got {
				got = append(got, d.node)
				if d.meta.Hops > tt.ttl {
					t.Errorf("node %d received at %d hops, beyond TTL %d", d.node, d.meta.Hops, tt.ttl)
				}
				if d.meta.Hops != d.node {
					t.Errorf("node %d reports %d hops, want %d on a line", d.node, d.meta.Hops, d.node)
				}
			}
			sort.Ints(got)
			if len(got) != len(tt.want) {
				t.Fatalf("flood ttl=%d reached %v, want %v", tt.ttl, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("flood ttl=%d reached %v, want %v", tt.ttl, got, tt.want)
				}
			}
		})
	}
}

// TestPerturberDrop suppresses a unicast's final delivery and checks the
// drop lands in the traffic ledger, not at the receiver.
func TestPerturberDrop(t *testing.T) {
	h := newHarness(t, 3, false)
	h.net.SetPerturber(func(node int, msg protocol.Message, meta Meta) Perturbation {
		if msg.Kind == protocol.KindGetNew {
			return Perturbation{Drop: true}
		}
		return Perturbation{}
	})
	if err := h.net.Unicast(0, 2, testMsg(protocol.KindGetNew)); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 2, testMsg(protocol.KindCancel)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	if len(h.got) != 1 || h.got[0].msg.Kind != protocol.KindCancel {
		t.Fatalf("got %d deliveries, want only the unperturbed CANCEL", len(h.got))
	}
}

// TestPerturberDelayAndDup delays one message past another sent later
// (reordering) and checks a duplicated delivery arrives twice with the
// duplicate at the delayed time. Jitter is off, so the order is set by
// the perturber's delays alone and not by the seed's jitter draws.
func TestPerturberDelayAndDup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	h := newHarnessCfg(t, cfg, chain(2), false)
	h.net.SetPerturber(func(node int, msg protocol.Message, meta Meta) Perturbation {
		switch msg.Kind {
		case protocol.KindGetNew:
			return Perturbation{Delay: time.Second}
		case protocol.KindInvalidation:
			return Perturbation{Dup: true, DupDelay: 2 * time.Second}
		}
		return Perturbation{}
	})
	if err := h.net.Unicast(0, 1, testMsg(protocol.KindGetNew)); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 1, testMsg(protocol.KindCancel)); err != nil {
		t.Fatal(err)
	}
	if err := h.net.Unicast(0, 1, testMsg(protocol.KindInvalidation)); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	var kinds []protocol.Kind
	for _, d := range h.got {
		kinds = append(kinds, d.msg.Kind)
	}
	want := []protocol.Kind{
		protocol.KindCancel,       // unperturbed, arrives first
		protocol.KindInvalidation, // on-time copy of the dup
		protocol.KindGetNew,       // delayed 1s: overtaken by the later sends
		protocol.KindInvalidation, // duplicate copy, delayed 2s
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d deliveries %v, want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", kinds, want)
		}
	}
	// The delayed deliveries must stamp their actual arrival time.
	last := h.got[len(h.got)-1]
	if last.meta.At < 2*time.Second {
		t.Errorf("duplicate delivered at %v, want >= 2s", last.meta.At)
	}
}

// TestPerturberNilIsIdentity runs the same seeded flood with and without
// an installed no-op perturber: the delivery sequence must be identical,
// so un-perturbed runs stay byte-identical.
func TestPerturberNilIsIdentity(t *testing.T) {
	run := func(install bool) []delivery {
		h := newHarness(t, 6, false)
		if install {
			h.net.SetPerturber(func(int, protocol.Message, Meta) Perturbation {
				return Perturbation{}
			})
		}
		if err := h.net.Flood(0, 3, testMsg(protocol.KindInvalidation)); err != nil {
			t.Fatal(err)
		}
		if err := h.net.Unicast(0, 4, testMsg(protocol.KindGetNew)); err != nil {
			t.Fatal(err)
		}
		h.k.Run()
		return h.got
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].node != b[i].node || a[i].msg.Kind != b[i].msg.Kind || a[i].meta != b[i].meta {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPerturbedDeliveryIsAPooledRecord ping-pongs a message between two
// nodes with every delivery delayed, so each receiver sends from inside
// a delayed delivery and its send takes the record that delivery just
// released: every delivery must still carry its own message and time.
// Once the pool is warm a round allocates nothing, and a destination
// that goes down while its delivery is delayed is dropped at fire time.
func TestPerturbedDeliveryIsAPooledRecord(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	h := newHarnessCfg(t, cfg, chain(2), true)
	h.net.SetPerturber(func(int, protocol.Message, Meta) Perturbation {
		return Perturbation{Delay: time.Second}
	})
	var got []delivery
	for nd := 0; nd < 2; nd++ {
		if err := h.net.SetReceiver(nd, func(_ *sim.Kernel, node int, msg protocol.Message, meta Meta) {
			got = append(got, delivery{node: node, msg: msg, meta: meta})
			msg.Seq++
			if err := h.net.Unicast(node, 1-node, msg); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	msg := testMsg(protocol.KindGetNew)
	msg.Seq = 1
	if err := h.net.Unicast(0, 1, msg); err != nil {
		t.Fatal(err)
	}
	h.k.RunUntil(10 * time.Second)
	if len(got) < 4 {
		t.Fatalf("only %d deliveries in 10 s", len(got))
	}
	for i, d := range got {
		if d.node != (i+1)%2 || d.msg.Seq != uint64(i+1) || d.meta.At < time.Duration(i+1)*time.Second {
			t.Fatalf("delivery %d: node %d seq %d at %v; want node %d seq %d at >= %ds",
				i, d.node, d.msg.Seq, d.meta.At, (i+1)%2, i+1, i+1)
		}
	}

	// The count is process-wide, and the runtime now and then allocates
	// once on its own; so the windows are measured twice: an allocation in
	// the deliveries repeats in both rounds, the runtime's does not.
	next := h.k.Now()
	measure := func() float64 {
		got = make([]delivery, 0, 1024)
		return testing.AllocsPerRun(1, func() {
			for range 50 {
				next += 10 * time.Second
				h.k.RunUntil(next)
			}
		})
	}
	if first, second := measure(), measure(); first != 0 && second != 0 {
		t.Errorf("50 windows of delayed deliveries allocate %.0f and then %.0f objects, want 0", first, second)
	}

	if err := h.churn.ForceState(h.k, 1-got[len(got)-1].node, churn.StateDisconnected); err != nil {
		t.Fatal(err)
	}
	before := h.net.Traffic().DroppedByCause(protocol.KindGetNew, stats.DropDisconnected)
	delivered := len(got)
	h.k.RunUntil(h.k.Now() + 5*time.Second)
	if len(got) != delivered {
		t.Errorf("%d deliveries reached a node that went down while they were delayed", len(got)-delivered)
	}
	if h.net.Traffic().DroppedByCause(protocol.KindGetNew, stats.DropDisconnected) == before {
		t.Error("the delayed delivery to a down node was not recorded as dropped")
	}
}
