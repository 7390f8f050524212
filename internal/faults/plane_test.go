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
	"github.com/manetlab/rpcc/internal/telemetry"
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
		{Start: 1 * time.Second, End: 10 * time.Second, Islands: [][]int{{2, 3}}},
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
		{Start: 1 * time.Second, End: 10 * time.Second, Islands: [][]int{{0, 1}, {2, 3}}},
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

// An untraced campaign pays nothing for the event record: with no
// collector (and no hub) a single-node fault report allocates nothing.
// Traced, the same plane records a crash on its node and a partition as
// a root on node -1 with one child per node.
func TestFaultReportUntracedAllocFreeTracedShape(t *testing.T) {
	k, _, p := planeNet(t, Config{})
	if avg := testing.AllocsPerRun(100, func() {
		p.report(k, telemetry.FaultCrash, []int{2}, -1)
	}); avg != 0 {
		t.Errorf("untraced fault report allocates %v per call, want 0", avg)
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
		{0, 2, telemetry.FaultCrash},
		{0, -1, telemetry.FaultPartitionSplit},
		{2, 0, telemetry.FaultPartitionSplit}, {2, 1, telemetry.FaultPartitionSplit}, {2, 3, telemetry.FaultPartitionSplit},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fault spans = %+v\nwant %+v", got, want)
	}
}
