// Package geo provides the 2-D geometry primitives used by the MANET
// simulator: points in metres, rectangular terrains, and the handful of
// vector operations mobility and radio models need.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position on the simulation plane, in metres.
type Point struct {
	X, Y float64
}

// String renders the point for traces, e.g. "(731.2, 48.0)".
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the point scaled componentwise by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// DistSq returns the squared distance; radio-range checks use it to avoid
// the square root on the hot path.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q. t outside
// [0,1] extrapolates, which callers must avoid for bounded terrains.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Terrain is the rectangular simulation field with its origin at (0,0).
// The paper's default is a 1500 m x 1500 m flatland.
type Terrain struct {
	Width, Height float64
}

// NewTerrain constructs a terrain, returning an error for non-positive
// dimensions.
func NewTerrain(width, height float64) (Terrain, error) {
	if width <= 0 || height <= 0 {
		return Terrain{}, fmt.Errorf("geo: non-positive terrain %gx%g", width, height)
	}
	return Terrain{Width: width, Height: height}, nil
}

// Contains reports whether p lies inside the terrain (boundary inclusive).
func (t Terrain) Contains(p Point) bool {
	return p.X >= 0 && p.X <= t.Width && p.Y >= 0 && p.Y <= t.Height
}

// RandomPoint draws a uniform point inside the terrain from r.
func (t Terrain) RandomPoint(r *rand.Rand) Point {
	return Point{X: r.Float64() * t.Width, Y: r.Float64() * t.Height}
}

// Center returns the terrain midpoint.
func (t Terrain) Center() Point { return Point{X: t.Width / 2, Y: t.Height / 2} }

// Area returns the terrain area in square metres.
func (t Terrain) Area() float64 { return t.Width * t.Height }

// CellIndex maps p to the index of a square grid cell of the given side
// length, row-major. Mobility uses it to detect "subnet" crossings: the
// paper counts a peer as having moved when it crosses from one region of
// the field to another (the N_m statistic feeding the PMR coefficient).
func (t Terrain) CellIndex(p Point, cell float64) int { return t.Grid(cell).Index(p) }

// Grid is the square cell grid CellIndex indexes, with its column and row
// counts worked out once, for a caller that indexes many points.
type Grid struct {
	cell       float64
	cols, rows int
}

// Grid returns the grid of square cells of the given side over t. A
// non-positive side gives a grid whose one cell is the whole terrain.
func (t Terrain) Grid(cell float64) Grid {
	if cell <= 0 {
		return Grid{}
	}
	return Grid{
		cell: cell,
		cols: max(int(math.Ceil(t.Width/cell)), 1),
		rows: max(int(math.Ceil(t.Height/cell)), 1),
	}
}

// Index maps p to its cell, row-major; a point off the terrain is clamped
// into the nearest edge cell.
func (g Grid) Index(p Point) int {
	if g.cell <= 0 {
		return 0
	}
	cx := min(max(int(p.X/g.cell), 0), g.cols-1)
	cy := min(max(int(p.Y/g.cell), 0), g.rows-1)
	return cy*g.cols + cx
}
