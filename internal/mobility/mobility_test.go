package mobility

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/rpcc/internal/geo"
)

func testConfig() Config {
	terrain, _ := geo.NewTerrain(1500, 1500)
	return Config{
		Terrain:    terrain,
		MinSpeed:   1,
		MaxSpeed:   20,
		Pause:      10 * time.Second,
		SubnetCell: 500,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(*Config) {}, true},
		{"zero min speed", func(c *Config) { c.MinSpeed = 0 }, false},
		{"max below min", func(c *Config) { c.MaxSpeed = 0.5 }, false},
		{"negative pause", func(c *Config) { c.Pause = -time.Second }, false},
		{"bad terrain", func(c *Config) { c.Terrain = geo.Terrain{} }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewWaypointRejectsNilRNG(t *testing.T) {
	if _, err := NewWaypoint(testConfig(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestPositionStaysInTerrain(t *testing.T) {
	cfg := testConfig()
	w, err := NewWaypoint(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3600; s += 5 {
		p := w.PositionAt(time.Duration(s) * time.Second)
		if !cfg.Terrain.Contains(p) {
			t.Fatalf("position %v at %ds outside terrain", p, s)
		}
	}
}

func TestPositionContinuity(t *testing.T) {
	// Between two samples dt apart the node can have moved at most
	// MaxSpeed*dt (movement is piecewise linear at bounded speed).
	cfg := testConfig()
	w, _ := NewWaypoint(cfg, rand.New(rand.NewSource(7)))
	prev := w.PositionAt(0)
	const dt = time.Second
	for s := 1; s < 7200; s++ {
		cur := w.PositionAt(time.Duration(s) * dt)
		if d := cur.Dist(prev); d > cfg.MaxSpeed*dt.Seconds()+1e-6 {
			t.Fatalf("node jumped %.2fm in %v at t=%ds (max %.2f)", d, dt, s, cfg.MaxSpeed*dt.Seconds())
		}
		prev = cur
	}
}

func TestPositionDeterministic(t *testing.T) {
	a, _ := NewWaypoint(testConfig(), rand.New(rand.NewSource(11)))
	b, _ := NewWaypoint(testConfig(), rand.New(rand.NewSource(11)))
	for s := 0; s < 600; s += 7 {
		ta := a.PositionAt(time.Duration(s) * time.Second)
		tb := b.PositionAt(time.Duration(s) * time.Second)
		if ta != tb {
			t.Fatalf("same-seed trajectories diverged at %ds: %v vs %v", s, ta, tb)
		}
	}
}

func TestPauseHoldsPosition(t *testing.T) {
	cfg := testConfig()
	cfg.Pause = time.Hour // long pause: node must sit still after arriving
	cfg.MinSpeed, cfg.MaxSpeed = 1000, 1000
	w, _ := NewWaypoint(cfg, rand.New(rand.NewSource(5)))
	// With 1000 m/s speed the first leg ends within ~2.2s (max diagonal
	// 2121m); sample well after that, inside the hour-long pause.
	p1 := w.PositionAt(10 * time.Second)
	p2 := w.PositionAt(30 * time.Second)
	if p1 != p2 {
		t.Fatalf("node moved during pause: %v -> %v", p1, p2)
	}
}

func TestNodeEventuallyMoves(t *testing.T) {
	w, _ := NewWaypoint(testConfig(), rand.New(rand.NewSource(9)))
	start := w.PositionAt(0)
	moved := false
	for s := 1; s <= 3600; s++ {
		if w.PositionAt(time.Duration(s)*time.Second) != start {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("node never moved in an hour")
	}
}

func TestMovesCounterIncreases(t *testing.T) {
	cfg := testConfig()
	cfg.Pause = 0
	cfg.MinSpeed, cfg.MaxSpeed = 50, 50 // fast: many subnet crossings
	w, _ := NewWaypoint(cfg, rand.New(rand.NewSource(13)))
	for s := 0; s < 3600; s++ {
		w.PositionAt(time.Duration(s) * time.Second)
	}
	if w.Moves() == 0 {
		t.Fatal("fast node recorded zero subnet crossings in an hour")
	}
}

func TestMovesDisabledWithZeroCell(t *testing.T) {
	cfg := testConfig()
	cfg.SubnetCell = 0
	w, _ := NewWaypoint(cfg, rand.New(rand.NewSource(13)))
	for s := 0; s < 600; s++ {
		w.PositionAt(time.Duration(s) * time.Second)
	}
	if w.Moves() != 0 {
		t.Fatalf("Moves() = %d with crossing detection disabled", w.Moves())
	}
}

func TestNonMonotonicQueryIsSafe(t *testing.T) {
	w, _ := NewWaypoint(testConfig(), rand.New(rand.NewSource(17)))
	w.PositionAt(100 * time.Second)
	// Earlier query must not panic or rewind the trajectory.
	p := w.PositionAt(50 * time.Second)
	if !testConfig().Terrain.Contains(p) {
		t.Fatalf("backward query returned out-of-terrain point %v", p)
	}
}

func TestFieldConstruction(t *testing.T) {
	stream := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i) + 1)) }
	if _, err := NewField(testConfig(), 0, stream); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewField(testConfig(), 5, nil); err == nil {
		t.Error("nil stream accepted")
	}
	f, err := NewField(testConfig(), 50, stream)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 50 {
		t.Errorf("Len() = %d, want 50", f.Len())
	}
}

// TestFieldMatchesWaypoints pins the carved field to standalone
// trajectories: node i of NewField follows exactly the path NewWaypoint
// draws from the same stream, and the field is a fixed number of
// allocations whatever its size, with a nil stream rejected by node.
func TestFieldMatchesWaypoints(t *testing.T) {
	cfg := testConfig()
	stream := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i) + 1)) }
	f, err := NewField(cfg, 20, stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Len(); i++ {
		w, err := NewWaypoint(cfg, stream(i))
		if err != nil {
			t.Fatal(err)
		}
		for at := time.Duration(0); at <= 10*time.Minute; at += 7 * time.Second {
			if got, want := f.Node(i).PositionAt(at), w.PositionAt(at); got != want {
				t.Fatalf("node %d at %v: field %v, waypoint %v", i, at, got, want)
			}
		}
		if f.Node(i).Moves() != w.Moves() {
			t.Fatalf("node %d: field moves %d, waypoint %d", i, f.Node(i).Moves(), w.Moves())
		}
	}
	rngs := make([]*rand.Rand, 1000)
	for i := range rngs {
		rngs[i] = stream(i)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewField(cfg, len(rngs), func(i int) *rand.Rand { return rngs[i] }); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("NewField(1000) makes %.0f allocations, want <= 2", allocs)
	}
	if _, err := NewField(cfg, 3, func(i int) *rand.Rand {
		if i == 2 {
			return nil
		}
		return stream(i)
	}); err == nil {
		t.Error("nil stream for one node accepted")
	}
}

func TestFieldPositionsAt(t *testing.T) {
	cfg := testConfig()
	stream := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i) + 1)) }
	f, err := NewField(cfg, 10, stream)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.PositionsAt(time.Minute, nil)
	if len(pts) != 10 {
		t.Fatalf("got %d positions", len(pts))
	}
	for i, p := range pts {
		if !cfg.Terrain.Contains(p) {
			t.Errorf("node %d at %v outside terrain", i, p)
		}
		if q := f.Node(i).PositionAt(time.Minute); q != p {
			t.Errorf("node %d batch %v != direct %v", i, p, q)
		}
	}
	// Reuse the same backing slice.
	pts2 := f.PositionsAt(2*time.Minute, pts)
	if &pts2[0] != &pts[0] {
		t.Error("PositionsAt reallocated despite sufficient capacity")
	}
}

func TestTrajectoryInsideTerrainProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64, minutes uint8) bool {
		w, err := NewWaypoint(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for s := 0; s <= int(minutes)*60; s += 13 {
			if !cfg.Terrain.Contains(w.PositionAt(time.Duration(s) * time.Second)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
