package faults_test

import (
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/churn"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/wire"
)

type line []geo.Point

func (l line) Len() int { return len(l) }
func (l line) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	return append(dst[:0], l...)
}

// TestPartitionParityWithWire: the simulator's plane and the wire's chaos
// shim compile a partition through the same island rule, so at every
// probed instant they cut exactly the same directed links — including
// campaigns that leave nodes unlisted on the mainland.
func TestPartitionParityWithWire(t *testing.T) {
	const n = 6
	sec := faults.Duration(time.Second)
	fc := faults.Config{Partitions: []faults.Partition{
		{Start: sec, End: 3 * sec, Islands: [][]int{{2, 3}}},
		{Start: 4 * sec, End: 6 * sec, Islands: [][]int{{0}, {4, 5}}},
	}}
	k := sim.NewKernel(sim.WithSeed(1))
	pts := make(line, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200}
	}
	net, err := netsim.New(netsim.DefaultConfig(), k, pts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	chn, err := churn.NewProcess(churn.Config{Disabled: true}, n, k)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := faults.NewPlane(fc, faults.Env{Net: net, Churn: chn})
	if err != nil {
		t.Fatal(err)
	}
	if err := plane.Install(k); err != nil {
		t.Fatal(err)
	}
	shims := make([]*wire.Chaos, n)
	for to := range shims {
		if shims[to], err = wire.NewChaos(&fc, to, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	cuts := 0
	for at := time.Duration(0); at <= 7*time.Second; at += 250 * time.Millisecond {
		k.At(at, "probe", func(*sim.Kernel) {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					simCut, wireCut := plane.LinkCut(from, to), shims[to].Partitioned(at, from)
					if simCut != wireCut {
						t.Errorf("t=%v link %d→%d: simulator cut=%v, wire cut=%v", at, from, to, simCut, wireCut)
					}
					if simCut {
						cuts++
					}
				}
			}
		})
	}
	k.RunUntil(8 * time.Second)
	if cuts == 0 {
		t.Fatal("the campaign cut no link: the parity is vacuous")
	}
}
