// Package mobility implements the random-waypoint movement model used by
// the paper's evaluation (Johnson & Maltz, 1996): each node repeatedly
// picks a uniform destination in the terrain, travels to it in a straight
// line at a uniform-random speed, pauses, and repeats.
//
// Positions are piecewise-linear in time, so the model stores only the
// current leg (origin, destination, departure time, speed) and computes
// PositionAt analytically. Legs are advanced lazily; no per-tick position
// events are needed, which keeps the event queue small.
package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/manetlab/rpcc/internal/geo"
)

// Config parameterises the mobility model.
type Config struct {
	Terrain  geo.Terrain
	MinSpeed float64       // metres/second, > 0
	MaxSpeed float64       // metres/second, >= MinSpeed
	Pause    time.Duration // dwell time at each waypoint, >= 0
	// SubnetCell is the side (metres) of the grid used to detect
	// "movement" events for the PMR statistic (paper §4.2: N_m counts
	// moves from one subnet to another). Zero disables move counting.
	SubnetCell float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Terrain.Width <= 0 || c.Terrain.Height <= 0 {
		return fmt.Errorf("mobility: invalid terrain %gx%g", c.Terrain.Width, c.Terrain.Height)
	}
	if c.MinSpeed <= 0 {
		return fmt.Errorf("mobility: MinSpeed %g must be > 0", c.MinSpeed)
	}
	if c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("mobility: MaxSpeed %g < MinSpeed %g", c.MaxSpeed, c.MinSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	return nil
}

// leg is one straight-line movement followed by a pause.
type leg struct {
	from, to  geo.Point
	departAt  time.Duration // time the node leaves `from`
	arriveAt  time.Duration // time the node reaches `to`
	pauseTill time.Duration // arriveAt + pause
}

// Waypoint is a single node's random-waypoint trajectory. It is advanced
// lazily: each call with a later time rolls the trajectory forward,
// generating new legs from the node's private random stream.
type Waypoint struct {
	cfg      Config
	rng      *rand.Rand
	cur      leg
	subnets  geo.Grid // cfg.Terrain's grid of cfg.SubnetCell cells
	moves    uint64   // subnet crossings observed so far
	lastCell int
	lastSeen time.Duration

	// future buffers legs generated ahead of cur by peeks at times the
	// simulation clock has not reached yet (PeekPosition). advance
	// consumes the buffer before drawing fresh legs, so the node's private
	// RNG sees exactly the same draw sequence whether or not anything ever
	// peeked.
	future []leg
}

// NewWaypoint creates a trajectory starting at a uniform-random position.
// rng must be a stream dedicated to this node so trajectories do not
// interleave draws.
func NewWaypoint(cfg Config, rng *rand.Rand) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil rng")
	}
	w := new(Waypoint)
	w.start(cfg, rng)
	return w, nil
}

// start places w at a uniform-random position on its first leg; cfg is
// valid and rng non-nil.
func (w *Waypoint) start(cfg Config, rng *rand.Rand) {
	start := cfg.Terrain.RandomPoint(rng)
	*w = Waypoint{cfg: cfg, rng: rng, subnets: cfg.Terrain.Grid(cfg.SubnetCell)}
	w.cur = w.nextLeg(start, 0)
	w.lastCell = w.subnets.Index(start)
}

// nextLeg draws a fresh destination (a uniform terrain point) and speed,
// departing from `from` at time `depart`.
func (w *Waypoint) nextLeg(from geo.Point, depart time.Duration) leg {
	to := w.cfg.Terrain.RandomPoint(w.rng)
	speed := w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
	dist := from.Dist(to)
	travel := time.Duration(dist / speed * float64(time.Second))
	if travel <= 0 {
		travel = time.Millisecond // degenerate same-point draw
	}
	return leg{
		from:      from,
		to:        to,
		departAt:  depart,
		arriveAt:  depart + travel,
		pauseTill: depart + travel + w.cfg.Pause,
	}
}

// advance rolls the trajectory forward so the current leg covers time t.
// t must be monotonically non-decreasing across calls (enforced).
func (w *Waypoint) advance(t time.Duration) {
	if t < w.lastSeen {
		// Queries must come from the simulation clock, which never goes
		// backwards; treat a regression as a caller bug but stay safe.
		t = w.lastSeen
	}
	for t > w.cur.pauseTill {
		if len(w.future) > 0 {
			w.cur = w.future[0]
			w.future = w.future[1:]
		} else {
			w.cur = w.nextLeg(w.cur.to, w.cur.pauseTill)
		}
	}
}

// legAt returns the leg covering time t without advancing the trajectory:
// legs beyond the current one are generated into the peek buffer, where a
// later advance picks them up in order. t earlier than the current leg
// returns the current leg (positions before departAt clamp to its origin,
// which matches what PositionAt reports for non-advancing queries).
func (w *Waypoint) legAt(t time.Duration) leg {
	if t <= w.cur.pauseTill {
		return w.cur
	}
	last := w.cur
	if n := len(w.future); n > 0 {
		last = w.future[n-1]
	}
	for t > last.pauseTill {
		last = w.nextLeg(last.to, last.pauseTill)
		w.future = append(w.future, last)
	}
	for i := range w.future {
		if t <= w.future[i].pauseTill {
			return w.future[i]
		}
	}
	return last
}

// PeekPosition returns the node position at time t — which may be in the
// simulation's future — without advancing the trajectory, counting subnet
// crossings, or otherwise perturbing what later PositionAt calls observe.
// The position is computed with the same leg interpolation as PositionAt,
// so peeking at a time and then querying it yields bit-identical points.
func (w *Waypoint) PeekPosition(t time.Duration) geo.Point {
	return legPos(w.legAt(t), t)
}

// PositionAt returns the node position at virtual time t. Calls must use
// non-decreasing t (the simulation clock); earlier times return the
// position at the latest time already observed. It is also where subnet
// crossings are counted, so when the calls come decides what Moves sees.
func (w *Waypoint) PositionAt(t time.Duration) geo.Point {
	w.advance(t)
	p := w.positionOnLeg(t)
	if w.cfg.SubnetCell > 0 && t >= w.lastSeen {
		cell := w.subnets.Index(p)
		if cell != w.lastCell {
			w.moves++
			w.lastCell = cell
		}
	}
	if t > w.lastSeen {
		w.lastSeen = t
	}
	return p
}

func (w *Waypoint) positionOnLeg(t time.Duration) geo.Point {
	return legPos(w.cur, t)
}

// legPos interpolates a position on one leg. Both the advancing PositionAt
// path and the non-mutating PeekPosition path go through this single
// formula, so the two agree bit-for-bit at equal times.
func legPos(l leg, t time.Duration) geo.Point {
	switch {
	case t <= l.departAt:
		return l.from
	case t >= l.arriveAt:
		return l.to
	default:
		frac := float64(t-l.departAt) / float64(l.arriveAt-l.departAt)
		return l.from.Lerp(l.to, frac)
	}
}

// Moves returns the cumulative number of subnet crossings (the paper's
// N_m input to the peer moving rate). Crossings are detected at
// PositionAt calls, so callers that sample positions periodically get a
// periodic moving-rate signal, mirroring how a real node would observe
// itself. In a simulation those calls are the network's topology samples
// (netsim's Graph reads PositionsAt once per sample, at the sample time):
// a node that crosses into a subnet and back between two samples is not
// counted, and a change in how often samples are taken can move N_m, and
// through PMR, CS and the relay election, RPCC's traffic.
func (w *Waypoint) Moves() uint64 { return w.moves }

// Field is the collection of all node trajectories; it answers the batch
// position queries the radio model issues every topology tick. The
// trajectories are one array, not one heap object per node.
type Field struct {
	nodes   []Waypoint
	terrain geo.Terrain
}

// NewField builds n independent trajectories. The stream function must
// return a distinct deterministic RNG per node index.
func NewField(cfg Config, n int, stream func(i int) *rand.Rand) (*Field, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mobility: need at least one node, got %d", n)
	}
	if stream == nil {
		return nil, fmt.Errorf("mobility: nil stream function")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]Waypoint, n)
	for i := range nodes {
		rng := stream(i)
		if rng == nil {
			return nil, fmt.Errorf("mobility: node %d: nil rng", i)
		}
		nodes[i].start(cfg, rng)
	}
	return &Field{nodes: nodes, terrain: cfg.Terrain}, nil
}

// Terrain returns the rectangle every trajectory stays inside.
func (f *Field) Terrain() geo.Terrain { return f.terrain }

// Len returns the number of nodes in the field.
func (f *Field) Len() int { return len(f.nodes) }

// Node returns the trajectory of node i.
func (f *Field) Node(i int) *Waypoint { return &f.nodes[i] }

// PeekPosition returns node i's position at time t (future times allowed)
// without advancing any trajectory state. See Waypoint.PeekPosition.
func (f *Field) PeekPosition(i int, t time.Duration) geo.Point {
	return f.nodes[i].PeekPosition(t)
}

// PositionsAt fills dst with every node's position at time t, allocating
// when dst is too small, and returns the slice. It counts subnet
// crossings (PositionAt); the network calls it once per topology sample,
// so that is where N_m is sampled. PeekPosition reads without counting.
func (f *Field) PositionsAt(t time.Duration, dst []geo.Point) []geo.Point {
	if cap(dst) < len(f.nodes) {
		dst = make([]geo.Point, len(f.nodes))
	}
	dst = dst[:len(f.nodes)]
	for i := range f.nodes {
		dst[i] = f.nodes[i].PositionAt(t)
	}
	return dst
}
