package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative quadrant", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %g, want %g", got, tt.want)
			}
			if got := tt.p.DistSq(tt.q); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("DistSq = %g, want %g", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestNewTerrainValidation(t *testing.T) {
	if _, err := NewTerrain(0, 100); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewTerrain(100, -1); err == nil {
		t.Error("negative height accepted")
	}
	tr, err := NewTerrain(1500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Area() != 1500*1500 {
		t.Errorf("Area = %g", tr.Area())
	}
}

func TestTerrainContains(t *testing.T) {
	tr, _ := NewTerrain(100, 50)
	tests := []struct {
		p      Point
		inside bool
	}{
		{Point{0, 0}, true},
		{Point{100, 50}, true},
		{Point{50, 25}, true},
		{Point{-1, 25}, false},
		{Point{50, 51}, false},
		{Point{101, 25}, false},
	}
	for _, tt := range tests {
		if got := tr.Contains(tt.p); got != tt.inside {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.inside)
		}
	}
}

func TestRandomPointInsideTerrain(t *testing.T) {
	tr, _ := NewTerrain(1500, 1500)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p := tr.RandomPoint(r); !tr.Contains(p) {
			t.Fatalf("RandomPoint produced %v outside terrain", p)
		}
	}
}

func TestCenter(t *testing.T) {
	tr, _ := NewTerrain(1500, 900)
	if c := tr.Center(); c != (Point{750, 450}) {
		t.Errorf("Center = %v", c)
	}
}

func TestCellIndex(t *testing.T) {
	square, _ := NewTerrain(100, 100)
	ragged, _ := NewTerrain(250, 120) // 3 columns and 2 rows of 100, the last ones partial
	tests := []struct {
		tr   Terrain
		p    Point
		cell float64
		want int
	}{
		{square, Point{5, 5}, 50, 0},
		{square, Point{55, 5}, 50, 1},
		{square, Point{5, 55}, 50, 2},
		{square, Point{55, 55}, 50, 3},
		{square, Point{50, 50}, 50, 3},   // a cell's lower edge belongs to it
		{square, Point{100, 100}, 50, 3}, // boundary clamps into last column
		{square, Point{-1, 200}, 50, 2},  // off the terrain: nearest edge cell
		{square, Point{5, 5}, 0, 0},      // degenerate cell size
		{square, Point{55, 55}, -3, 0},
		{square, Point{99, 99}, 500, 0}, // one cell larger than the terrain
		{ragged, Point{0, 0}, 100, 0},
		{ragged, Point{249, 119}, 100, 5},
		{ragged, Point{250, 120}, 100, 5},
		{ragged, Point{300, 0}, 100, 2},
		{ragged, Point{0, 1e9}, 100, 3},
		{ragged, Point{-50, -50}, 100, 0},
	}
	// Each grid is built once and reused across its rows, the way a
	// waypoint indexes every position it reports.
	grids := map[[3]float64]Grid{}
	for _, tt := range tests {
		if got := tt.tr.CellIndex(tt.p, tt.cell); got != tt.want {
			t.Errorf("%gx%g: CellIndex(%v, %g) = %d, want %d", tt.tr.Width, tt.tr.Height, tt.p, tt.cell, got, tt.want)
		}
		key := [3]float64{tt.tr.Width, tt.tr.Height, tt.cell}
		g, ok := grids[key]
		if !ok {
			g = tt.tr.Grid(tt.cell)
			grids[key] = g
		}
		if got := g.Index(tt.p); got != tt.want {
			t.Errorf("%gx%g: Grid(%g).Index(%v) = %d, want %d", tt.tr.Width, tt.tr.Height, tt.cell, tt.p, got, tt.want)
		}
	}
}

func TestCellIndexNonNegativeProperty(t *testing.T) {
	tr, _ := NewTerrain(1500, 1500)
	f := func(x, y uint16, cell uint8) bool {
		p := Point{float64(x % 1501), float64(y % 1501)}
		return tr.CellIndex(p, float64(cell)+1) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
