package faults

import (
	"reflect"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
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

// planeNet is a 4-node chain (0-1-2-3 at 200 m spacing, 250 m range)
// with a fault plane installed over it.
func planeNet(t *testing.T, fc Config) (*sim.Kernel, *netsim.Network, *Plane) {
	t.Helper()
	pts := []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0}}
	k := sim.NewKernel(sim.WithSeed(5))
	net, err := netsim.New(netsim.DefaultConfig(), k, &staticSource{pts: pts}, nil, nil, stats.NewTraffic())
	if err != nil {
		t.Fatal(err)
	}
	chn, err := churn.NewProcess(churn.Config{Disabled: true}, len(pts), k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(fc, Env{Net: net, Churn: chn})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Install(k); err != nil {
		t.Fatal(err)
	}
	return k, net, p
}

// A partition with a single listed island must actually sever that
// island from the unlisted mainland: frames crossing the boundary drop
// with the partition cause, and delivery resumes after the heal.
// (Regression: island group ids must not collide with the mainland's
// implicit id.)
func TestPartitionSeversSingleIsland(t *testing.T) {
	fc := Config{Partitions: []Partition{
		{Start: Duration(time.Second), End: Duration(10 * time.Second), Islands: [][]int{{2, 3}}},
	}}
	k, net, _ := planeNet(t, fc)

	delivered := make(map[int]int)
	for nd := 0; nd < net.Len(); nd++ {
		nd := nd
		if err := net.SetReceiver(nd, func(_ *sim.Kernel, node int, _ protocol.Message, _ netsim.Meta) {
			delivered[node]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	send := func(label string, seq uint64) {
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1, Origin: 0, Seq: seq}
		if err := net.Unicast(0, 3, msg); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	k.At(2*time.Second, "send.during", func(*sim.Kernel) { send("during partition", 1) })
	k.At(12*time.Second, "send.after", func(*sim.Kernel) { send("after heal", 2) })
	k.RunUntil(15 * time.Second)

	if got := net.Traffic().DroppedByCause(protocol.KindPoll, stats.DropPartition); got != 1 {
		t.Errorf("partition drops = %d, want 1", got)
	}
	if delivered[3] != 1 {
		t.Errorf("node 3 received %d messages, want exactly the post-heal one", delivered[3])
	}
}

// Two listed islands must also be severed from each other, not only
// from the mainland.
func TestPartitionSeversIslandsFromEachOther(t *testing.T) {
	fc := Config{Partitions: []Partition{
		{Start: Duration(time.Second), End: Duration(10 * time.Second), Islands: [][]int{{0, 1}, {2, 3}}},
	}}
	k, net, _ := planeNet(t, fc)

	k.At(2*time.Second, "send", func(*sim.Kernel) {
		msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1, Origin: 1, Seq: 1}
		if err := net.Unicast(1, 2, msg); err != nil {
			t.Fatal(err)
		}
	})
	k.RunUntil(5 * time.Second)
	if got := net.Traffic().DroppedByCause(protocol.KindPoll, stats.DropPartition); got != 1 {
		t.Errorf("partition drops = %d, want 1", got)
	}
}

// TestDupJitterPerturbsOnlyUnicastFinalHops pins the campaign's
// duplication and jitter on the 4-node chain: twelve unicasts 0→3 sent
// 2 ms apart arrive with five duplicates, reordered by the jitter, at
// these exact times; a flood and a local delivery in the same run arrive
// once each, exactly when they arrive in a fault-free run.
func TestDupJitterPerturbsOnlyUnicastFinalHops(t *testing.T) {
	type arrival struct {
		node int
		seq  uint64
		at   time.Duration
	}
	run := func(fc Config) (unicasts, others []arrival) {
		k, net, _ := planeNet(t, fc)
		for nd := 0; nd < net.Len(); nd++ {
			if err := net.SetReceiver(nd, func(_ *sim.Kernel, node int, msg protocol.Message, meta netsim.Meta) {
				a := arrival{node, msg.Seq, meta.At}
				if msg.Seq < 100 {
					unicasts = append(unicasts, a)
				} else {
					others = append(others, a)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		send := func(from, to int, kind protocol.Kind, seq uint64) {
			msg := protocol.Message{Kind: kind, Item: 1, Version: 1, Origin: from, Seq: seq}
			if err := net.Unicast(from, to, msg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			seq := uint64(i + 1)
			k.At(time.Duration(i)*2*time.Millisecond, "send", func(*sim.Kernel) { send(0, 3, protocol.KindPoll, seq) })
		}
		k.At(50*time.Millisecond, "flood", func(*sim.Kernel) {
			msg := protocol.Message{Kind: protocol.KindInvalidation, Version: 1, Seq: 100}
			if err := net.Flood(0, 3, msg); err != nil {
				t.Fatal(err)
			}
		})
		k.At(60*time.Millisecond, "local", func(*sim.Kernel) { send(2, 2, protocol.KindPoll, 200) })
		k.RunUntil(time.Second)
		return unicasts, others
	}
	unicasts, others := run(Config{DupProb: 0.3, Jitter: Duration(5 * time.Millisecond)})
	want := []arrival{
		{3, 2, 11160768}, {3, 1, 11164698}, {3, 3, 12439356}, {3, 3, 15258285},
		{3, 4, 18479200}, {3, 5, 18990004}, {3, 7, 21225717}, {3, 6, 21452739},
		{3, 7, 22610677}, {3, 8, 24232669}, {3, 8, 24479713}, {3, 9, 27461164},
		{3, 10, 27479647}, {3, 10, 28769731}, {3, 11, 29964256}, {3, 12, 32107739},
		{3, 12, 35331022},
	}
	if !reflect.DeepEqual(unicasts, want) {
		t.Errorf("unicast arrivals = %v\nwant %v", unicasts, want)
	}
	_, clean := run(Config{})
	if len(others) != 4 || !reflect.DeepEqual(others, clean) {
		t.Errorf("flood and local arrivals = %v, want the fault-free %v", others, clean)
	}
}

// An untraced campaign pays nothing for the event record: with no
// collector (and no hub) a single-node fault report allocates nothing.
// Traced, the same plane records a crash on its node and a partition as
// a root on node -1 with one child per node.
func TestFaultReportUntracedAllocFreeTracedShape(t *testing.T) {
	k, _, p := planeNet(t, Config{})
	if total := testing.AllocsPerRun(1, func() {
		for range 100 {
			p.report(k, faultCrash, []int{2}, -1)
		}
	}); total != 0 {
		t.Errorf("100 untraced fault reports allocate %.0f objects, want 0", total)
	}

	p.env.Tracer = ctrace.NewCollector(0)
	p.crash(k, 2, 0)
	p.split(k, Partition{Islands: [][]int{{3}, {1, 0}}})
	type row struct {
		parent uint64
		node   int
		name   string
	}
	var got []row
	for _, s := range p.env.Tracer.Export() {
		if s.Phase != ctrace.PhaseFault || s.StartNs != s.EndNs {
			t.Errorf("span %+v is not an instantaneous fault span", s)
		}
		if (s.Annot != nil) != (s.Parent == 0) || (s.Annot != nil && s.Annot.Item != -1) {
			t.Errorf("span %+v: want item -1 annotated on roots only, got %+v", s, s.Annot)
		}
		got = append(got, row{s.Parent, s.Node, s.Name})
	}
	want := []row{
		{0, 2, faultCrash},
		{0, -1, faultPartitionSplit},
		{2, 0, faultPartitionSplit}, {2, 1, faultPartitionSplit}, {2, 3, faultPartitionSplit},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fault spans = %+v\nwant %+v", got, want)
	}
}
