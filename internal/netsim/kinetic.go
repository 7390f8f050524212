package netsim

import (
	"math"
	"slices"
	"time"

	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/radio"
)

// The kinetic topology plane produces every connectivity snapshot by
// incremental neighbour maintenance that advances only when a snapshot is
// read: nothing in this file is a kernel event. Node motion is piecewise
// linear (random waypoint legs), so for a tracked pair at distance d whose
// current legs move at speeds s_u and s_v, no crossing of the range R can
// happen before t + |d−R|/(s_u+s_v), and neither leg's contribution
// changes before its segment ends. The minimum of those bounds is the
// pair's certificate. Certificates wait on the plane's own heap;
// kineticSample drains those due at or before the sample time S and
// re-verifies each with the positions sampled at S, so float error can
// delay a detection but never corrupt one — link state is always
// confirmed by an exact distance test.
//
// Candidate pairs come from a Verlet-style skin: nodes are binned on a
// grid of side R+skin by their anchor (last rebin) position, a node's
// rebin falls due before it can drift skin/2 from its anchor, and every
// re-anchoring rescans the node's 3×3 block and drops its pairs whose
// anchors separated. So a pair is tracked exactly while its anchor
// distance is ≤ R+skin, in whatever order rebins are processed.
//
// Exactness at a sample. The drain processes every heap entry due ≤ S at
// the positions of S. Afterwards (a) a node whose rebin was overdue — by
// however many skins; nothing runs between samples — sits within skin/4
// of its anchor, and any other node within skin/2 by the bound that
// scheduled its rebin, so an untracked pair is at true distance > R:
// links exist on tracked pairs only; (b) a tracked pair whose certificate
// was due has had its exact test at S, and one whose certificate is not
// yet due cannot have crossed R since its last test. Inside the drain (a)
// can fail for a moment: dropPair's premise — separated anchors imply out
// of range — needs both anchors fresh, and the other endpoint may itself
// be overdue, so a pair in range at S can be dropped (counted as a
// break). It heals before the drain ends: that endpoint is more than a
// skin from its anchor, so its own rebin is due, re-anchors it at S, and
// the rescan re-discovers the pair with an exact distance test (a make;
// the two CSR diffs are a superset the route repair tolerates).
//
// Snapshots are byte-identical to a from-scratch radio.GraphBuilder build
// of the sampled positions: link membership at the sample time is exact,
// and the CSR is packed with the same down-node filtering and ascending
// row order the builder produces. The equivalence tests in
// kinetic_test.go pin this, and route answers equal to a fresh BFS, on
// seeded mobile+churn histories and static layouts, at dense and at
// sparse sampling (where the in-drain heal runs).

// KineticSource is the position source contract the kinetic plane needs:
// batch sampling plus the linear motion segment a node is on at the
// sample time. *mobility.Field implements it.
type KineticSource interface {
	PositionSource
	SegmentAt(i int, t time.Duration) mobility.Segment
}

// still runs a PositionSource without SegmentAt on the kinetic plane: its
// nodes never move, so no certificate or rebin ever falls due.
type still struct{ PositionSource }

func (still) SegmentAt(int, time.Duration) mobility.Segment {
	return mobility.Segment{End: math.MaxInt64}
}

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
	// seen, and a pair dropped and re-discovered inside one drain counts
	// one of each.
	LinkMakes, LinkBreaks uint64
	// CertChecks counts certificate re-verifications (exact distance
	// tests at a sample, one per certificate that fell due since the
	// last sample — not one per certificate that would have fired).
	CertChecks uint64
	// Rebins counts Verlet anchor re-bins (candidate rediscovery scans),
	// likewise at most one per node per sample.
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
	s.CertChecks += o.CertChecks
	s.Rebins += o.Rebins
	s.RoutesRepaired += o.RoutesRepaired
	s.RoutesDropped += o.RoutesDropped
}

// kinSkinFactor scales the Verlet skin relative to the comm range.
const kinSkinFactor = 0.5

type pairState struct {
	u, v    int32
	linked  bool
	dead    bool
	gen     uint32 // heap-entry generation, bumped on slab free
	pendIdx int32
	pendGen uint32
	diffGen uint32
}

type pairMark struct {
	gen uint32
	idx int32
}

type pendEntry struct {
	u, v int32
	add  bool
	dead bool
}

// kinItem is one scheduled check: id >= 0 is a pair slab index, id < 0 a
// node rebin (node = ^id). gen lazily invalidates superseded entries.
type kinItem struct {
	due time.Duration
	id  int32
	gen uint32
}

// before orders checks by (due, id, gen). A node has one rebin entry per
// gen and a pair slab one certificate per gen in the heap at a time, so
// this is a total order: pop order is a function of what was pushed, not
// of the heap's shape.
func (a kinItem) before(b kinItem) bool {
	return a.due < b.due || a.due == b.due && (a.id < b.id || a.id == b.id && a.gen < b.gen)
}

// kinHeap is a binary min-heap of checks, sifted on the concrete type.
type kinHeap []kinItem

func (h *kinHeap) push(it kinItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
	*h = q
}

// pop removes and returns the earliest check. The heap must be non-empty.
func (h *kinHeap) pop() kinItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	if n > 0 {
		q.down(0)
	}
	return top
}

// down sifts entry i towards the leaves until its children follow it.
func (q kinHeap) down(i int) {
	n := len(q)
	it := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(it) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = it
}

// heapify restores the heap order over arbitrary contents.
func (q kinHeap) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

type kinetic struct {
	src  KineticSource
	n    int
	r    float64
	r2   float64
	skin float64
	side float64

	anchors []geo.Point
	// The cell grid: cells[cy·gw + cx] lists the nodes anchored in grid
	// cell (cx, cy), which is floor(x/cell) − ox, floor(y/cell) − oy
	// clamped into the gw × gh grid (see grid).
	cell     float64
	ox, oy   float64
	gw, gh   int32
	cellOf   []int32
	cells    [][]int32
	rebinGen []uint32

	pairs   []pairState
	free    []int32
	tracked [][]int32 // per node: pair slab indices

	// dead counts heap entries whose pair was dropped after they were
	// pushed: a certificate waits in the heap until it falls due, and a
	// compaction removes them all once they reach the live ones.
	dead int

	// mark[j].gen == markGen says the node markTracked last ran for tracks
	// a pair with j, in slab mark[j].idx.
	mark    []pairMark
	markGen uint32

	linkedAdj [][]int32 // sorted linked geometric neighbour rows

	heap kinHeap

	pending []pendEntry
	sample  uint32

	downPrev []bool
	inited   bool
	initing  bool

	stats *TopologyStats
}

func newKinetic(src KineticSource, commRange float64, stats *TopologyStats) *kinetic {
	n := src.Len()
	skin := commRange * kinSkinFactor
	return &kinetic{
		src:       src,
		n:         n,
		sample:    1, // 0 is the zero value of diffGen/pendGen: must never be current
		r:         commRange,
		r2:        commRange * commRange,
		skin:      skin,
		side:      commRange + skin,
		anchors:   make([]geo.Point, n),
		cellOf:    make([]int32, n),
		rebinGen:  make([]uint32, n),
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

// init performs the one full build: anchors, cell bins, candidate pair
// discovery and the initial certificate schedule, all at time t with the
// sampled positions.
func (kn *kinetic) init(t time.Duration, pos []geo.Point) {
	copy(kn.anchors, pos)
	kn.grid(pos)
	kn.bin()
	kn.carve()
	kn.initing = true
	for i := 0; i < kn.n; i++ {
		kn.discover(int32(i), t, pos)
	}
	kn.initing = false
	for i := 0; i < kn.n; i++ {
		kn.scheduleRebin(int32(i), t, pos)
	}
	kn.inited = true
	kn.stats.FullRebuilds++
}

// withSlack is the capacity a row carved for count entries gets when rows
// hold mean entries on average: three times the larger of the two.
// Random-waypoint nodes crowd toward the terrain's centre over time, and
// a node carries its rows from a sparse corner into the crowd, so the
// slack follows the mean as well as the row's own count. A row that
// still outgrows it falls back to append, into an array of its own.
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
// empty cell's row stays nil until a node moves in.
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
// node's tracked and linked rows, carved from one array with slack, the
// pair slab and the certificate heap. A node's links are a subset of its
// tracked pairs, so its linked row gets the tracked row's room: it
// outgrows it only when the tracked row does.
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
	// covers the crowding. A dropped pair's certificate stays until it
	// falls due or a compaction, which runs once the dead entries reach
	// the live ones, so the heap holds at most two entries per live check
	// (a slab pair or a node's rebin).
	slab := entries/2 + entries/4
	kn.pairs = make([]pairState, 0, slab)
	kn.heap = make(kinHeap, 0, 2*(slab+kn.n))
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
func (kn *kinetic) discover(u int32, t time.Duration, pos []geo.Point) {
	kn.markTracked(u)
	au := kn.anchors[u]
	maxD2 := kn.side * kn.side
	x0, x1, y0, y1 := kn.block(au)
	for y := y0; y <= y1; y++ {
		for _, row := range kn.cells[y*kn.gw+x0 : y*kn.gw+x1+1] {
			for _, j := range row {
				if j != u && au.DistSq(kn.anchors[j]) <= maxD2 && kn.mark[j].gen != kn.markGen {
					kn.trackPair(u, j, t, pos)
				}
			}
		}
	}
}

func (kn *kinetic) trackPair(u, v int32, t time.Duration, pos []geo.Point) {
	var idx int32
	if n := len(kn.free); n > 0 {
		idx = kn.free[n-1]
		kn.free = kn.free[:n-1]
		gen := kn.pairs[idx].gen
		kn.pairs[idx] = pairState{u: u, v: v, gen: gen}
	} else {
		idx = int32(len(kn.pairs))
		kn.pairs = append(kn.pairs, pairState{u: u, v: v})
	}
	kn.tracked[u] = append(kn.tracked[u], idx)
	kn.tracked[v] = append(kn.tracked[v], idx)
	pu, pv := pos[u], pos[v]
	if pu.DistSq(pv) <= kn.r2 {
		// A pair is only untracked while strictly out of range, so a
		// linked discovery is a genuine link-make event.
		kn.setLinked(idx, true)
	}
	kn.scheduleCert(idx, t, pu, pv)
}

// setLinked flips a pair's link state: the adjacency rows and, outside
// the initial build (which is not a window of link events), the
// make/break counter and the pending CSR diff.
func (kn *kinetic) setLinked(idx int32, linked bool) {
	st := &kn.pairs[idx]
	edit, count := removeSorted, &kn.stats.LinkBreaks
	if linked {
		edit, count = insertSorted, &kn.stats.LinkMakes
	}
	kn.linkedAdj[st.u] = edit(kn.linkedAdj[st.u], st.v)
	kn.linkedAdj[st.v] = edit(kn.linkedAdj[st.v], st.u)
	st.linked = linked
	if !kn.initing {
		*count++
		kn.pendFlip(idx, linked)
	}
}

// dropPair stops tracking a pair whose anchors have separated beyond
// R+skin. Between fresh anchors that implies true distance > R, so a
// still-linked pair breaks here (its certificate may simply not have been
// drained yet this batch). When the other endpoint's anchor is stale —
// its own rebin overdue, later in this drain — the pair may in truth be
// in range; that rebin re-discovers it (see the header).
func (kn *kinetic) dropPair(idx int32, fromRebin int32) {
	st := &kn.pairs[idx]
	if st.linked {
		kn.setLinked(idx, false)
	}
	// The rebinning endpoint compacts its own tracked list.
	other := st.u ^ st.v ^ fromRebin
	kn.tracked[other] = swapRemove(kn.tracked[other], idx)
	st.dead = true
	st.gen++
	kn.free = append(kn.free, idx)
	if kn.dead++; 2*kn.dead >= len(kn.heap) {
		kn.compact()
	}
}

// compact drops the dead certificates from the heap and restores its
// order. Checks pop in (due, id, gen) order, a total order, so the drain
// sequence does not depend on the heap's shape.
func (kn *kinetic) compact() {
	live := kn.heap[:0]
	for _, it := range kn.heap {
		if it.id < 0 || kn.pairs[it.id].gen == it.gen {
			live = append(live, it)
		}
	}
	kn.heap = live
	kn.heap.heapify()
	kn.dead = 0
}

// pendFlip records a link flip for the next sample's CSR diff, with
// parity cancellation: a pair that flips twice between samples nets out.
func (kn *kinetic) pendFlip(idx int32, add bool) {
	st := &kn.pairs[idx]
	if st.pendGen == kn.sample && int(st.pendIdx) < len(kn.pending) {
		e := &kn.pending[st.pendIdx]
		if e.u == st.u && e.v == st.v {
			e.dead = !e.dead
			e.add = add
			return
		}
	}
	st.pendIdx = int32(len(kn.pending))
	st.pendGen = kn.sample
	kn.pending = append(kn.pending, pendEntry{u: st.u, v: st.v, add: add})
}

// scheduleCert schedules the pair's next crossing certificate by solving
// the pair's link-crossing time analytically on the current motion legs:
// both nodes move linearly until the earlier segment end, so
// |q0 + wΔ|² = R² is a quadratic in Δ (q0 the current separation, w the
// relative velocity). A linked pair re-checks at its exit root, an
// unlinked approaching pair at its entry root, and a pair whose legs
// never cross R re-checks only when a leg ends — most tracked pairs cost
// zero work until then.
func (kn *kinetic) scheduleCert(idx int32, t time.Duration, pu, pv geo.Point) {
	st := &kn.pairs[idx]
	segU := kn.src.SegmentAt(int(st.u), t)
	segV := kn.src.SegmentAt(int(st.v), t)
	due := min(segU.End, segV.End)
	wx := segU.Vel.X - segV.Vel.X
	wy := segU.Vel.Y - segV.Vel.Y
	if a := wx*wx + wy*wy; a > 0 {
		qx := pu.X - pv.X
		qy := pu.Y - pv.Y
		b := 2 * (qx*wx + qy*wy)
		c := qx*qx + qy*qy - kn.r2
		disc := b*b - 4*a*c
		delta := -1.0 // seconds until the crossing; <0 = none on these legs
		if c <= 0 {
			// Inside R (disc ≥ b² here): the exit is the larger root,
			// which is never negative.
			delta = (-b + math.Sqrt(disc)) / (2 * a)
		} else if disc > 0 && b < 0 {
			// Outside R and approaching: the entry is the smaller root,
			// in its cancellation-free form.
			delta = 2 * c / (-b + math.Sqrt(disc))
		}
		if delta >= 0 {
			// The certificate must fire at or before the true crossing —
			// a cert landing after a snapshot that the crossing preceded
			// would leave the sample stale. Shaving a relative 1e-9 plus
			// an absolute 1µs absorbs every float rounding in the solve;
			// firing early is self-correcting (the exact distance test
			// re-arms the certificate).
			d := time.Duration(delta*(1-1e-9)*float64(time.Second)) - time.Microsecond
			due = min(due, t+d)
		}
	}
	kn.heap.push(kinItem{due: max(due, t+1), id: idx, gen: st.gen})
}

// scheduleRebin schedules the time by which node u must re-anchor: before
// it can drift skin/2 from its anchor, and no later than its current
// motion segment's end (a paused node schedules nothing until the pause
// ends).
func (kn *kinetic) scheduleRebin(u int32, t time.Duration, pos []geo.Point) {
	seg := kn.src.SegmentAt(int(u), t)
	due := seg.End
	if seg.Speed > 0 {
		drift := kn.anchors[u].Dist(pos[u])
		remaining := max(kn.skin/2-drift, 0)
		due = min(due, t+time.Duration(remaining/seg.Speed*float64(time.Second)))
	}
	kn.rebinGen[u]++
	kn.heap.push(kinItem{due: max(due, t+1), id: ^u, gen: kn.rebinGen[u]})
}

// processRebin re-anchors node u if it drifted meaningfully, rescans its
// 3×3 block for new candidates and drops pairs whose anchors separated.
func (kn *kinetic) processRebin(u int32, t time.Duration, pos []geo.Point) {
	p := pos[u]
	if kn.anchors[u].Dist(p) >= kn.skin/4 {
		kn.stats.Rebins++
		kn.anchors[u] = p
		if c := kn.cellIndex(p); c != kn.cellOf[u] {
			kn.cells[kn.cellOf[u]] = swapRemove(kn.cells[kn.cellOf[u]], u)
			kn.cellOf[u] = c
			kn.cells[c] = append(kn.cells[c], u)
		}
		// Drop pairs whose anchors separated beyond the skin envelope.
		maxD2 := kn.side * kn.side
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
		kn.discover(u, t, pos)
	}
	kn.scheduleRebin(u, t, pos)
}

// processPair re-verifies a due certificate with an exact distance test,
// records any link flip, and schedules the next certificate.
func (kn *kinetic) processPair(idx int32, t time.Duration, pos []geo.Point) {
	st := &kn.pairs[idx]
	kn.stats.CertChecks++
	pu := pos[st.u]
	pv := pos[st.v]
	if linked := pu.DistSq(pv) <= kn.r2; linked != st.linked {
		kn.setLinked(idx, linked)
	}
	kn.scheduleCert(idx, t, pu, pv)
}

// drainUntil processes every scheduled check due at or before the sample
// time t, with the positions sampled at t.
func (kn *kinetic) drainUntil(t time.Duration, pos []geo.Point) {
	for len(kn.heap) > 0 && kn.heap[0].due <= t {
		it := kn.heap.pop()
		if it.id >= 0 {
			st := &kn.pairs[it.id]
			if st.dead || st.gen != it.gen {
				kn.dead--
				continue
			}
			kn.processPair(it.id, t, pos)
		} else {
			u := ^it.id
			if kn.rebinGen[u] != it.gen {
				continue
			}
			kn.processRebin(u, t, pos)
		}
	}
}

// csrDiffs converts the window's pending link flips plus the down-mask
// delta into the CSR edge changes between the previous and the new
// snapshot — exactly those, plus a removal and an addition of the same
// edge for a pair healed inside the drain — and rolls the sample counter.
func (kn *kinetic) csrDiffs(down []bool, buf []radio.EdgeDiff) []radio.EdgeDiff {
	diffs := buf[:0]
	for i := range kn.pending {
		e := &kn.pending[i]
		if e.dead {
			continue
		}
		// The flipped pair, if it is still tracked (under this slab or,
		// dropped and re-discovered, another): mark it handled.
		for _, idx := range kn.tracked[e.u] {
			if st := &kn.pairs[idx]; st.u^st.v^e.u == e.v {
				st.diffGen = kn.sample
				break
			}
		}
		inOld := !e.add && !kn.downPrev[e.u] && !kn.downPrev[e.v]
		inNew := e.add && !down[e.u] && !down[e.v]
		if inOld != inNew {
			diffs = append(diffs, radio.EdgeDiff{U: e.u, V: e.v, Add: inNew})
		}
	}
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
				diffs = append(diffs, radio.EdgeDiff{U: int32(w), V: x, Add: inNew})
			}
		}
	}
	kn.pending = kn.pending[:0]
	copy(kn.downPrev, down)
	kn.sample++
	return diffs
}
