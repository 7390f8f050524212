package radio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/manetlab/rpcc/internal/geo"
)

// line builds a chain topology: nodes at (0,0), (d,0), (2d,0), ...
func line(n int, spacing float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * spacing, Y: 0}
	}
	return pts
}

// TestNewGraphValidation: Build rejects a non-positive range and a down
// mask of the wrong length.
func TestNewGraphValidation(t *testing.T) {
	pts := line(3, 100)
	if _, err := newGraph(pts, nil, 0, 0); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := newGraph(pts, make([]bool, 2), 100, 0); err == nil {
		t.Error("mismatched down slice accepted")
	}
}

func TestChainConnectivity(t *testing.T) {
	g, err := newGraph(line(5, 200), nil, 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Stamp() != 1 {
		t.Fatalf("Stamp = %d", g.Stamp())
	}
	// Spacing 200 < range 250 < 400: only adjacent nodes connect.
	for i := 0; i < 4; i++ {
		if !g.Connected(i, i+1) {
			t.Errorf("nodes %d,%d not connected", i, i+1)
		}
	}
	if g.Connected(0, 2) {
		t.Error("nodes 0,2 connected across 400m with 250m range")
	}
	if d0, d2 := len(g.Neighbors(0)), len(g.Neighbors(2)); d0 != 1 || d2 != 2 {
		t.Errorf("degrees = %d,%d want 1,2", d0, d2)
	}
}

func TestHops(t *testing.T) {
	g, _ := newGraph(line(6, 200), nil, 250, 0)
	tests := []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 5, 5},
		{2, 4, 2},
	}
	for _, tt := range tests {
		if got := g.Hops(tt.src, tt.dst); got != tt.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tt.src, tt.dst, got, tt.want)
		}
	}
}

func TestHopsUnreachableAcrossPartition(t *testing.T) {
	// Two clusters far apart.
	pts := append(line(3, 100), geo.Point{X: 5000, Y: 0}, geo.Point{X: 5100, Y: 0})
	g, _ := newGraph(pts, nil, 250, 0)
	if got := g.Hops(0, 3); got != Unreachable {
		t.Errorf("Hops across partition = %d, want Unreachable", got)
	}
	if got := g.Hops(3, 4); got != 1 {
		t.Errorf("Hops inside far cluster = %d, want 1", got)
	}
}

func TestDownNodesHaveNoEdges(t *testing.T) {
	down := []bool{false, true, false}
	g, _ := newGraph(line(3, 200), down, 250, 0)
	if g.Up(1) {
		t.Error("down node reported up")
	}
	if d := len(g.Neighbors(1)); d != 0 {
		t.Errorf("down node degree = %d", d)
	}
	// Node 1 was the bridge: 0 and 2 are now mutually unreachable.
	if got := g.Hops(0, 2); got != Unreachable {
		t.Errorf("Hops through down bridge = %d, want Unreachable", got)
	}
	if g.Hops(1, 1) != Unreachable {
		t.Error("down node reachable from itself")
	}
}

func TestNextHopChain(t *testing.T) {
	g, _ := newGraph(line(5, 200), nil, 250, 0)
	if got := g.NextHop(0, 4); got != 1 {
		t.Errorf("NextHop(0,4) = %d, want 1", got)
	}
	if got := g.NextHop(4, 0); got != 3 {
		t.Errorf("NextHop(4,0) = %d, want 3", got)
	}
	if got := g.NextHop(0, 0); got != Unreachable {
		t.Errorf("NextHop(0,0) = %d, want Unreachable", got)
	}
}

func TestNextHopDeterministicTieBreak(t *testing.T) {
	// Diamond: 0 - {1,2} - 3; both 1 and 2 are valid next hops, the
	// lower id must win.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 80}, {X: 100, Y: -80}, {X: 200, Y: 0}}
	g, _ := newGraph(pts, nil, 150, 0)
	if got := g.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop tie-break = %d, want 1", got)
	}
}

func TestNextHopUnreachable(t *testing.T) {
	pts := append(line(2, 100), geo.Point{X: 9000, Y: 0})
	g, _ := newGraph(pts, nil, 250, 0)
	if got := g.NextHop(0, 2); got != Unreachable {
		t.Errorf("NextHop to island = %d, want Unreachable", got)
	}
}

func TestSymmetryProperty(t *testing.T) {
	terrain, _ := geo.NewTerrain(1500, 1500)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		pts := make([]geo.Point, n)
		down := make([]bool, n)
		for i := range pts {
			pts[i] = terrain.RandomPoint(r)
			down[i] = r.Intn(10) == 0
		}
		g, err := newGraph(pts, down, 250, 0)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.Connected(i, j) != g.Connected(j, i) {
					return false
				}
				if g.Hops(i, j) != g.Hops(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopMakesProgressProperty(t *testing.T) {
	// Property: following NextHop strictly decreases the hop distance, so
	// hop-by-hop forwarding terminates at dst.
	terrain, _ := geo.NewTerrain(1000, 1000)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 15 + r.Intn(20)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = terrain.RandomPoint(r)
		}
		g, err := newGraph(pts, nil, 300, 0)
		if err != nil {
			return false
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst || g.Hops(src, dst) == Unreachable {
					continue
				}
				cur, steps := src, 0
				for cur != dst {
					nh := g.NextHop(cur, dst)
					if nh == Unreachable {
						return false
					}
					if g.Hops(nh, dst) >= g.Hops(cur, dst) {
						return false
					}
					cur = nh
					if steps++; steps > n {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeQueries(t *testing.T) {
	g, _ := newGraph(line(3, 100), nil, 250, 0)
	if g.Neighbors(-1) != nil || g.Neighbors(99) != nil {
		t.Error("out-of-range Neighbors not nil")
	}
	if g.Up(-1) || g.Up(99) {
		t.Error("out-of-range Up true")
	}
	if g.Hops(-1, 0) != Unreachable || g.Hops(0, 99) != Unreachable {
		t.Error("out-of-range Hops reachable")
	}
	if g.NextHop(-1, 0) != Unreachable || g.NextHop(0, 99) != Unreachable {
		t.Error("out-of-range NextHop reachable")
	}
}
