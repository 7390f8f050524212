package netsim

import (
	"math"
	"slices"

	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
)

// The kinetic topology plane produces every connectivity snapshot by
// incremental neighbour maintenance that advances only when a snapshot is
// read: nothing in this file is a kernel event, and the positions a sample
// uses are the ones Graph() reads once at the sample time.
//
// Candidate pairs come from a Verlet skin: nodes are binned on a grid of
// side R+skin by their anchor position, and a pair is tracked exactly
// while its anchor distance is ≤ R+skin. A sample at time S runs two
// passes over the positions of S:
//
//  1. Re-anchor every node that has drifted more than skin/2 from its
//     anchor, and move it to its new cell. Only then, for each of those
//     nodes, drop the tracked pairs whose anchors are now more than R+skin
//     apart and discover new ones in its 3×3 cell block, each with an
//     exact distance test.
//  2. Test d² ≤ R² on every other tracked pair.
//
// Exactness at a sample. After pass 1 every node sits within skin/2 of its
// anchor, so an untracked pair, whose anchors are more than R+skin apart,
// is farther apart than R: links exist on tracked pairs only, and each of
// those has had its exact test at S. Every anchor is fresh before any
// pair is dropped, so a dropped pair is truly out of range (its break is
// real) and no pair is dropped and found again in one sample. The edge
// diffs a sample emits are therefore exactly the edge changes since the
// last sample, each edge at most once. This holds for any source, however
// far its nodes move between samples; a static layout is a source whose
// nodes never drift.
//
// Snapshots are byte-identical to a from-scratch radio.GraphBuilder build
// of the sampled positions: link membership at the sample time is exact,
// and the CSR is packed with the same down-node filtering and ascending
// row order the builder produces. The equivalence tests in
// kinetic_test.go pin this, and route answers equal to a fresh BFS, on
// seeded mobile+churn histories and static layouts, at dense and at
// sparse sampling.

// TopologyStats counts the kinetic plane's work — the accounting behind
// the rpcc_topology_* and rpcc_route_invalidation_* telemetry families.
type TopologyStats struct {
	// FullRebuilds counts the plane's one initial build.
	FullRebuilds uint64
	// KineticSamples counts snapshots produced by incremental advance:
	// every sample after the initial build.
	KineticSamples uint64
	// LinkMakes / LinkBreaks count the link state flips kinetic samples
	// observe: a link that forms and breaks between two samples is never
	// seen.
	LinkMakes, LinkBreaks uint64
	// PairTests counts pass 2's exact distance tests: every tracked pair
	// a sample did not just discover, once per sample.
	PairTests uint64
	// Rebins counts Verlet re-anchorings (candidate rediscovery scans): a
	// node re-anchors at a sample when it has drifted more than skin/2
	// from its anchor, so at most once per sample.
	Rebins uint64
	// RoutesRepaired / RoutesDropped count the catch-ups of stale
	// per-destination route tables when routing next reads them: repaired
	// in place against the edge changes logged since the last read, vs
	// abandoned (lagging past the log, or affected region too large) and
	// recomputed by BFS. A table nobody reads costs neither.
	RoutesRepaired, RoutesDropped uint64
}

// Add folds another stats block into s — the sharded scale path sums the
// per-region networks' counters into one report.
func (s *TopologyStats) Add(o TopologyStats) {
	s.FullRebuilds += o.FullRebuilds
	s.KineticSamples += o.KineticSamples
	s.LinkMakes += o.LinkMakes
	s.LinkBreaks += o.LinkBreaks
	s.PairTests += o.PairTests
	s.Rebins += o.Rebins
	s.RoutesRepaired += o.RoutesRepaired
	s.RoutesDropped += o.RoutesDropped
}

// kinSkinFactor scales the Verlet skin relative to the comm range.
const kinSkinFactor = 0.5

// pairState is one tracked pair in the slab. diffGen == the current sample
// says the pair's edge change for this sample is already settled: it was
// discovered, or it flipped, or the down-mask pass emitted it.
type pairState struct {
	u, v    int32
	linked  bool
	dead    bool // a free slab slot
	diffGen uint32
}

type pairMark struct {
	gen uint32
	idx int32
}

type kinetic struct {
	src  PositionSource
	n    int
	r2   float64
	skin float64
	side float64

	anchors []geo.Point
	// The cell grid: cells[cy·gw + cx] lists the nodes anchored in grid
	// cell (cx, cy), which is floor(x/cell) − ox, floor(y/cell) − oy
	// clamped into the gw × gh grid (see grid).
	cell   float64
	ox, oy float64
	gw, gh int32
	cellOf []int32
	cells  [][]int32
	// moved lists the nodes pass 1 re-anchored at this sample.
	moved []int32

	pairs   []pairState
	free    []int32
	tracked [][]int32 // per node: pair slab indices

	// mark[j].gen == markGen says the node markTracked last ran for tracks
	// a pair with j, in slab mark[j].idx.
	mark    []pairMark
	markGen uint32

	linkedAdj [][]int32 // sorted linked geometric neighbour rows
	// rows is where a cell, tracked or linked row that outgrows its
	// carved room moves to.
	rows sim.RowSlab

	// sample numbers the samples for diffGen; down and diffs are the
	// current sample's Up mask and the edge diffs it has emitted so far.
	sample   uint32
	down     []bool
	diffs    []radio.EdgeDiff
	downPrev []bool
	inited   bool

	stats *TopologyStats
}

func newKinetic(src PositionSource, commRange float64, stats *TopologyStats) *kinetic {
	n := src.Len()
	skin := commRange * kinSkinFactor
	return &kinetic{
		src:       src,
		n:         n,
		sample:    1, // 0 is the zero value of diffGen: must never be current
		r2:        commRange * commRange,
		skin:      skin,
		side:      commRange + skin,
		anchors:   make([]geo.Point, n),
		cellOf:    make([]int32, n),
		tracked:   make([][]int32, n),
		mark:      make([]pairMark, n),
		linkedAdj: make([][]int32, n),
		downPrev:  make([]bool, n),
		stats:     stats,
	}
}

// terrainSource is a position source whose nodes stay inside a known
// rectangle (*mobility.Field); the kinetic plane sizes its cell grid from
// it.
type terrainSource interface {
	Terrain() geo.Terrain
}

// maxCells bounds the cell grid for n nodes, so a sparse layout does not
// pay a header per empty cell of a huge bounding box.
func maxCells(n int) float64 { return float64(4*n + 1024) }

// grid lays the cell grid over the area anchors can occupy: the source's
// terrain when it reports one, else the bounding box of the positions at
// the build (a never-moving layout's own extent). Cells have side R+skin
// and origin 0, as floor(x/(R+skin)) numbers them, unless that would take
// more than maxCells cells; then the side doubles until it does not. A
// cell side of at least R+skin is all the 3×3 scan needs.
func (kn *kinetic) grid(pos []geo.Point) {
	var lo, hi geo.Point
	if t, ok := kn.src.(terrainSource); ok {
		hi = geo.Point{X: t.Terrain().Width, Y: t.Terrain().Height}
	} else if len(pos) > 0 {
		lo, hi = pos[0], pos[0]
		for _, p := range pos[1:] {
			lo = geo.Point{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
			hi = geo.Point{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
		}
	}
	kn.cell = kn.side
	for {
		kn.ox, kn.oy = math.Floor(lo.X/kn.cell), math.Floor(lo.Y/kn.cell)
		w, h := math.Floor(hi.X/kn.cell)-kn.ox+1, math.Floor(hi.Y/kn.cell)-kn.oy+1
		if w*h <= maxCells(kn.n) {
			kn.gw, kn.gh = int32(w), int32(h)
			return
		}
		kn.cell *= 2
	}
}

// cellXY returns the grid cell p falls in. A position off the grid is
// clamped onto its edge: clamping never widens the gap between two cell
// coordinates, so nodes within R+skin stay in adjacent cells.
func (kn *kinetic) cellXY(p geo.Point) (int32, int32) {
	cx := min(max(math.Floor(p.X/kn.cell)-kn.ox, 0), float64(kn.gw-1))
	cy := min(max(math.Floor(p.Y/kn.cell)-kn.oy, 0), float64(kn.gh-1))
	return int32(cx), int32(cy)
}

// cellIndex returns the index in cells of the cell p falls in.
func (kn *kinetic) cellIndex(p geo.Point) int32 {
	cx, cy := kn.cellXY(p)
	return cy*kn.gw + cx
}

// block returns the grid columns and rows of the 3×3 block around p,
// clipped to the grid so each cell is visited once.
func (kn *kinetic) block(p geo.Point) (x0, x1, y0, y1 int32) {
	cx, cy := kn.cellXY(p)
	return max(cx-1, 0), min(cx+1, kn.gw-1), max(cy-1, 0), min(cy+1, kn.gh-1)
}

func insertSorted(s []int32, x int32) []int32 {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

func removeSorted(s []int32, x int32) []int32 {
	if i, ok := slices.BinarySearch(s, x); ok {
		s = slices.Delete(s, i, i+1)
	}
	return s
}

// swapRemove deletes x from an unordered list.
func swapRemove(s []int32, x int32) []int32 {
	if i := slices.Index(s, x); i >= 0 {
		s[i] = s[len(s)-1]
		s = s[:len(s)-1]
	}
	return s
}

// init performs the one full build at the first sample: anchors, cell
// bins and candidate pair discovery with the sampled positions.
func (kn *kinetic) init(pos []geo.Point, down []bool) {
	copy(kn.anchors, pos)
	kn.grid(pos)
	kn.bin()
	kn.carve()
	for i := 0; i < kn.n; i++ {
		kn.discover(int32(i), pos)
	}
	copy(kn.downPrev, down)
	kn.sample++
	kn.inited = true
	kn.stats.FullRebuilds++
}

// withSlack is the capacity a row carved for count entries gets when rows
// hold mean entries on average: three times the larger of the two.
// Random-waypoint nodes crowd toward the terrain's centre over time, and
// a node carries its rows from a sparse corner into the crowd, so the
// slack follows the mean as well as the row's own count. A row that
// still outgrows it moves to room carved from the plane's RowSlab.
func withSlack(count, mean int) int {
	return 3*max(count, mean) + 1
}

// carveRows splits backing into empty rows with room for withSlack of
// each count, capped there so an append past the slack reallocates
// instead of running into the next row. It returns the rest of backing.
func carveRows(rows [][]int32, counts []int32, backing []int32, mean int) []int32 {
	for i, c := range counts {
		end := withSlack(int(c), mean)
		rows[i] = backing[:0:end]
		backing = backing[end:]
	}
	return backing
}

// bin files every node into the cell of its anchor. The rows of the
// occupied cells are carved from one array with slack and filled in
// ascending node order (the order appending one node at a time gives); an
// empty cell's row stays nil until a node moves in, and then gets room
// from the plane's row slab.
func (kn *kinetic) bin() {
	kn.cells = make([][]int32, int(kn.gw)*int(kn.gh))
	counts := make([]int32, len(kn.cells))
	occupied := 0
	for i, p := range kn.anchors {
		c := kn.cellIndex(p)
		kn.cellOf[i] = c
		if counts[c]++; counts[c] == 1 {
			occupied++
		}
	}
	mean, size := kn.n/max(occupied, 1), 0
	for _, c := range counts {
		if c > 0 {
			size += withSlack(int(c), mean)
		}
	}
	backing := make([]int32, size)
	for c, count := range counts {
		if count > 0 {
			end := withSlack(int(count), mean)
			kn.cells[c] = backing[:0:end]
			backing = backing[end:]
		}
	}
	for i, c := range kn.cellOf {
		kn.cells[c] = append(kn.cells[c], int32(i))
	}
}

// carve sizes the plane from the candidate pairs around the fresh anchors
// — the counts discover is about to track — before any is tracked: every
// node's tracked and linked rows, carved from one array with slack, and
// the pair slab. A node's links are a subset of its tracked pairs, so its
// linked row gets the tracked row's room: it outgrows it only when the
// tracked row does.
func (kn *kinetic) carve() {
	counts := make([]int32, kn.n)
	maxD2 := kn.side * kn.side
	entries := 0
	for u := range kn.n {
		au := kn.anchors[u]
		x0, x1, y0, y1 := kn.block(au)
		for y := y0; y <= y1; y++ {
			for _, row := range kn.cells[y*kn.gw+x0 : y*kn.gw+x1+1] {
				for _, j := range row {
					if int(j) != u && au.DistSq(kn.anchors[j]) <= maxD2 {
						counts[u]++
					}
				}
			}
		}
		entries += int(counts[u])
	}
	mean, size := entries/max(kn.n, 1), 0
	for _, c := range counts {
		size += 2 * withSlack(int(c), mean)
	}
	backing := carveRows(kn.tracked, counts, make([]int32, size), mean)
	carveRows(kn.linkedAdj, counts, backing, mean)
	// The pair count drifts less than a row does; half as many again
	// covers the crowding.
	kn.pairs = make([]pairState, 0, entries/2+entries/4)
}

// markTracked stamps the far endpoint of every pair node u tracks with a
// fresh generation and the pair's slab index. The stamps hold until the
// next call.
func (kn *kinetic) markTracked(u int32) {
	kn.markGen++
	for _, idx := range kn.tracked[u] {
		st := &kn.pairs[idx]
		kn.mark[st.u^st.v^u] = pairMark{gen: kn.markGen, idx: idx}
	}
}

// discover scans the 3×3 cell block around node u's anchor and starts
// tracking every candidate pair (anchor distance ≤ R+skin) not already
// tracked.
func (kn *kinetic) discover(u int32, pos []geo.Point) {
	kn.markTracked(u)
	au := kn.anchors[u]
	maxD2 := kn.side * kn.side
	x0, x1, y0, y1 := kn.block(au)
	for y := y0; y <= y1; y++ {
		for _, row := range kn.cells[y*kn.gw+x0 : y*kn.gw+x1+1] {
			for _, j := range row {
				if j != u && au.DistSq(kn.anchors[j]) <= maxD2 && kn.mark[j].gen != kn.markGen {
					kn.trackPair(u, j, pos)
				}
			}
		}
	}
}

// trackPair starts tracking the pair (u, v) with an exact distance test,
// which settles its edge change for this sample.
func (kn *kinetic) trackPair(u, v int32, pos []geo.Point) {
	st := pairState{u: u, v: v, diffGen: kn.sample}
	var idx int32
	if n := len(kn.free); n > 0 {
		idx = kn.free[n-1]
		kn.free = kn.free[:n-1]
		kn.pairs[idx] = st
	} else {
		idx = int32(len(kn.pairs))
		kn.pairs = append(kn.pairs, st)
	}
	kn.tracked[u] = append(kn.rows.Grow(kn.tracked[u], 1), idx)
	kn.tracked[v] = append(kn.rows.Grow(kn.tracked[v], 1), idx)
	if pos[u].DistSq(pos[v]) <= kn.r2 {
		// A pair is only untracked while out of range, so a linked
		// discovery is a genuine link-make event.
		kn.setLinked(idx, true)
	}
}

// setLinked flips a pair's link state: the adjacency rows and, outside
// the initial build (which is not a window of link events), the
// make/break counter and the pair's CSR diff.
func (kn *kinetic) setLinked(idx int32, linked bool) {
	st := &kn.pairs[idx]
	count := &kn.stats.LinkBreaks
	if linked {
		count = &kn.stats.LinkMakes
		kn.linkedAdj[st.u] = insertSorted(kn.rows.Grow(kn.linkedAdj[st.u], 1), st.v)
		kn.linkedAdj[st.v] = insertSorted(kn.rows.Grow(kn.linkedAdj[st.v], 1), st.u)
	} else {
		kn.linkedAdj[st.u] = removeSorted(kn.linkedAdj[st.u], st.v)
		kn.linkedAdj[st.v] = removeSorted(kn.linkedAdj[st.v], st.u)
	}
	st.linked = linked
	if !kn.inited {
		return
	}
	*count++
	st.diffGen = kn.sample
	inOld := !linked && !kn.downPrev[st.u] && !kn.downPrev[st.v]
	inNew := linked && !kn.down[st.u] && !kn.down[st.v]
	if inOld != inNew {
		kn.diffs = append(kn.diffs, radio.EdgeDiff{U: st.u, V: st.v, Add: inNew})
	}
}

// dropPair stops tracking a pair whose anchors have separated beyond
// R+skin. Every anchor is fresh when it runs, so the pair is out of range
// and a still-linked pair breaks here. u is the re-anchored endpoint,
// which compacts its own tracked list.
func (kn *kinetic) dropPair(idx int32, u int32) {
	st := &kn.pairs[idx]
	if st.linked {
		kn.setLinked(idx, false)
	}
	other := st.u ^ st.v ^ u
	kn.tracked[other] = swapRemove(kn.tracked[other], idx)
	st.dead = true
	kn.free = append(kn.free, idx)
}

// reanchor is pass 1: it re-anchors and re-bins every node that drifted
// more than skin/2, and only then drops and discovers those nodes' pairs.
func (kn *kinetic) reanchor(pos []geo.Point) {
	limit := kn.skin * kn.skin / 4
	kn.moved = kn.moved[:0]
	for i, p := range pos {
		if kn.anchors[i].DistSq(p) <= limit {
			continue
		}
		u := int32(i)
		kn.anchors[u] = p
		if c := kn.cellIndex(p); c != kn.cellOf[u] {
			kn.cells[kn.cellOf[u]] = swapRemove(kn.cells[kn.cellOf[u]], u)
			kn.cellOf[u] = c
			kn.cells[c] = append(kn.rows.Grow(kn.cells[c], 1), u)
		}
		kn.moved = append(kn.moved, u)
	}
	kn.stats.Rebins += uint64(len(kn.moved))
	maxD2 := kn.side * kn.side
	for _, u := range kn.moved {
		p := kn.anchors[u]
		lst := kn.tracked[u]
		kept := lst[:0]
		for _, idx := range lst {
			st := &kn.pairs[idx]
			if p.DistSq(kn.anchors[st.u^st.v^u]) > maxD2 {
				kn.dropPair(idx, u)
			} else {
				kept = append(kept, idx)
			}
		}
		kn.tracked[u] = kept
		kn.discover(u, pos)
	}
}

// advance brings the plane to a sample with the positions and Up mask read
// at it, and returns the CSR edge changes since the last sample in buf:
// pass 1 (reanchor), pass 2 (the exact test on every tracked pair pass 1
// did not just discover), then the down-mask delta on the links neither
// pass flipped.
func (kn *kinetic) advance(pos []geo.Point, down []bool, buf []radio.EdgeDiff) []radio.EdgeDiff {
	kn.down, kn.diffs = down, buf[:0]
	kn.reanchor(pos)
	tests := uint64(0)
	for i := range kn.pairs {
		st := &kn.pairs[i]
		if st.dead || st.diffGen == kn.sample {
			continue
		}
		tests++
		if linked := pos[st.u].DistSq(pos[st.v]) <= kn.r2; linked != st.linked {
			kn.setLinked(int32(i), linked)
		}
	}
	kn.stats.PairTests += tests
	for w := 0; w < kn.n; w++ {
		if kn.downPrev[w] == down[w] {
			continue
		}
		kn.markTracked(int32(w))
		for _, x := range kn.linkedAdj[w] {
			st := &kn.pairs[kn.mark[x].idx] // a linked pair is a tracked pair
			if st.diffGen == kn.sample {
				continue
			}
			st.diffGen = kn.sample
			inOld := !kn.downPrev[w] && !kn.downPrev[x]
			inNew := !down[w] && !down[x]
			if inOld != inNew {
				kn.diffs = append(kn.diffs, radio.EdgeDiff{U: int32(w), V: x, Add: inNew})
			}
		}
	}
	copy(kn.downPrev, down)
	kn.sample++
	return kn.diffs
}
