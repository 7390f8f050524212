package netsim

import (
	"container/heap"
	"math"
	"time"

	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
)

// The kinetic topology plane replaces per-snapshot full rebuilds with
// event-driven neighbour maintenance. Node motion is piecewise linear
// (random waypoint legs), so for every tracked node pair we can bound the
// earliest time the pair could cross the communication range R: with the
// pair at distance d and the two current legs moving at (exact, effective)
// speeds s_u and s_v, no crossing can happen before t + |d−R|/(s_u+s_v),
// and no leg's contribution changes before the leg's segment ends. The
// minimum of those bounds is the pair's certificate; certificates are
// scheduled as kernel events and re-verified with exact analytic positions
// when they fire, so float error can delay a detection but never corrupt
// one — link state is always confirmed by an exact distance test.
//
// Candidate pairs come from a Verlet-style skin: nodes are binned on a
// grid of side R+skin by their anchor (last rebin) position, and a node
// re-bins before it can drift skin/2 from its anchor. Any untracked pair
// therefore has anchor distance > R+skin and true distance > R, so links
// can only form on tracked pairs — the exactness invariant.
//
// Snapshots stay byte-identical to the full-rebuild path: Graph() samples
// positions at exactly the same times (so mobility Moves accounting and
// RNG draw order match), link membership at the sample time is exact, and
// the CSR is packed with the same down-node filtering and ascending row
// order the GraphBuilder produces. The equivalence tests in
// kinetic_test.go pin this on seeded mobile+churn histories.

// KineticSource is the position source contract the kinetic plane needs:
// batch sampling plus non-mutating analytic peeks at (possibly future)
// positions and motion segments. *mobility.Field implements it.
type KineticSource interface {
	PositionSource
	PeekPosition(i int, t time.Duration) geo.Point
	SegmentAt(i int, t time.Duration) mobility.Segment
}

// TopologyStats counts the kinetic plane's work — the accounting behind
// the rpcc_topology_* and rpcc_route_invalidation_* telemetry families.
type TopologyStats struct {
	// FullRebuilds counts full topology builds (every serial-mode rebuild,
	// plus the kinetic plane's initial build).
	FullRebuilds uint64
	// KineticSamples counts snapshots produced by incremental advance —
	// rebuilds avoided relative to the full-rebuild baseline.
	KineticSamples uint64
	// LinkMakes / LinkBreaks count kinetic link state flips.
	LinkMakes, LinkBreaks uint64
	// CertChecks counts certificate re-verifications (exact distance
	// tests triggered by due certificates).
	CertChecks uint64
	// Rebins counts Verlet anchor re-bins (candidate rediscovery scans).
	Rebins uint64
	// RoutesRepaired / RoutesDropped count the catch-ups of stale
	// per-destination route tables when routing next reads them: repaired
	// in place against the edge changes logged since the last read, vs
	// abandoned (lagging past the log, or affected region too large) and
	// recomputed by BFS. A table nobody reads costs neither.
	// RouteFullResets counts wholesale route-cache resets (every
	// serial-mode rebuild does one).
	RoutesRepaired, RoutesDropped, RouteFullResets uint64
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
	s.RouteFullResets += o.RouteFullResets
}

const (
	// kinSkinFactor scales the Verlet skin relative to the comm range.
	kinSkinFactor = 0.5
	// kinMinGrain batches the kernel driver event: certificates already
	// due are still verified exactly at the next sample, so delaying the
	// mid-window driver never affects snapshot contents — it only spreads
	// the work. It also bounds the event rate of grazing pairs sitting
	// numerically at the range boundary.
	kinMinGrain = time.Millisecond
)

type pairState struct {
	u, v    int32
	linked  bool
	dead    bool
	gen     uint32 // heap-entry generation, bumped on slab free
	pendIdx int32
	pendGen uint32
	diffGen uint32
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

type kinHeap []kinItem

func (h kinHeap) Len() int           { return len(h) }
func (h kinHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h kinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *kinHeap) Push(x any)        { *h = append(*h, x.(kinItem)) }
func (h *kinHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

type kinetic struct {
	src  KineticSource
	n    int
	r    float64
	r2   float64
	skin float64
	side float64

	anchors  []geo.Point
	cellOf   []int64
	cells    map[int64][]int32
	rebinGen []uint32

	pairs   []pairState
	free    []int32
	pairIdx map[uint64]int32
	tracked [][]int32 // per node: pair slab indices

	linkedAdj [][]int32 // sorted linked geometric neighbour rows

	heap kinHeap

	pending []pendEntry
	sample  uint32

	downPrev []bool
	inited   bool
	initing  bool

	ev   *sim.Event
	evAt time.Duration

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
		cellOf:    make([]int64, n),
		cells:     make(map[int64][]int32),
		rebinGen:  make([]uint32, n),
		pairIdx:   make(map[uint64]int32),
		tracked:   make([][]int32, n),
		linkedAdj: make([][]int32, n),
		downPrev:  make([]bool, n),
		stats:     stats,
	}
}

func pairKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// cellKey packs unclamped (possibly negative) cell coordinates; a map
// keyed this way needs no terrain bounds at all.
func cellKey(cx, cy int32) int64 { return int64(cx)<<32 | int64(uint32(cy)) }

func (kn *kinetic) cellCoords(p geo.Point) (int32, int32) {
	return int32(math.Floor(p.X / kn.side)), int32(math.Floor(p.Y / kn.side))
}

// posAt returns node i's exact position at time t: from the sample buffer
// when one is supplied (sample-time drains), otherwise via an analytic
// peek. Both produce bit-identical points for equal times.
func (kn *kinetic) posAt(i int32, t time.Duration, pos []geo.Point) geo.Point {
	if pos != nil {
		return pos[i]
	}
	return kn.src.PeekPosition(int(i), t)
}

func insertSorted(s []int32, x int32) []int32 {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = x
	return s
}

func removeSorted(s []int32, x int32) []int32 {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == x {
		copy(s[lo:], s[lo+1:])
		s = s[:len(s)-1]
	}
	return s
}

// init performs the one full build: anchors, cell bins, candidate pair
// discovery and the initial certificate schedule, all at time t with the
// sampled positions.
func (kn *kinetic) init(t time.Duration, pos []geo.Point) {
	copy(kn.anchors, pos)
	for i := 0; i < kn.n; i++ {
		cx, cy := kn.cellCoords(pos[i])
		key := cellKey(cx, cy)
		kn.cellOf[i] = key
		kn.cells[key] = append(kn.cells[key], int32(i))
	}
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

// discover scans the 3×3 cell block around node u's anchor and starts
// tracking every candidate pair (anchor distance ≤ R+skin) not already
// tracked.
func (kn *kinetic) discover(u int32, t time.Duration, pos []geo.Point) {
	au := kn.anchors[u]
	cx, cy := kn.cellCoords(au)
	maxD2 := kn.side * kn.side
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			for _, j := range kn.cells[cellKey(cx+dx, cy+dy)] {
				if j == u {
					continue
				}
				if au.DistSq(kn.anchors[j]) > maxD2 {
					continue
				}
				if _, ok := kn.pairIdx[pairKey(u, j)]; ok {
					continue
				}
				kn.trackPair(u, j, t, pos)
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
	kn.pairIdx[pairKey(u, v)] = idx
	kn.tracked[u] = append(kn.tracked[u], idx)
	kn.tracked[v] = append(kn.tracked[v], idx)
	pu := kn.posAt(u, t, pos)
	pv := kn.posAt(v, t, pos)
	d2 := pu.DistSq(pv)
	if d2 <= kn.r2 {
		// A pair is only untracked while strictly out of range, so a
		// linked discovery is a genuine link-make event.
		kn.pairs[idx].linked = true
		kn.linkedAdj[u] = insertSorted(kn.linkedAdj[u], v)
		kn.linkedAdj[v] = insertSorted(kn.linkedAdj[v], u)
		if !kn.initing {
			kn.pendFlip(idx, true)
			kn.stats.LinkMakes++
		}
	}
	kn.scheduleCert(idx, t, pu, pv)
}

// dropPair stops tracking a pair whose anchors have separated beyond
// R+skin. Separated anchors imply true distance > R, so a still-linked
// pair must break here (its certificate may simply not have been drained
// yet this batch).
func (kn *kinetic) dropPair(idx int32, fromRebin int32) {
	st := &kn.pairs[idx]
	if st.linked {
		kn.linkedAdj[st.u] = removeSorted(kn.linkedAdj[st.u], st.v)
		kn.linkedAdj[st.v] = removeSorted(kn.linkedAdj[st.v], st.u)
		st.linked = false
		kn.pendFlip(idx, false)
		kn.stats.LinkBreaks++
	}
	delete(kn.pairIdx, pairKey(st.u, st.v))
	for _, nd := range [2]int32{st.u, st.v} {
		if nd == fromRebin {
			continue // caller compacts its own tracked list
		}
		lst := kn.tracked[nd]
		for i, p := range lst {
			if p == idx {
				lst[i] = lst[len(lst)-1]
				kn.tracked[nd] = lst[:len(lst)-1]
				break
			}
		}
	}
	st.dead = true
	st.gen++
	kn.free = append(kn.free, idx)
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
	due := segU.End
	if segV.End < due {
		due = segV.End
	}
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
			if cand := t + d; cand < due {
				due = cand
			}
		}
	}
	if due <= t {
		due = t + 1
	}
	heap.Push(&kn.heap, kinItem{due: due, id: idx, gen: st.gen})
}

// scheduleRebin schedules the time by which node u must re-anchor: before
// it can drift skin/2 from its anchor, and no later than its current
// motion segment's end (a paused node schedules nothing until the pause
// ends).
func (kn *kinetic) scheduleRebin(u int32, t time.Duration, pos []geo.Point) {
	seg := kn.src.SegmentAt(int(u), t)
	due := seg.End
	if seg.Speed > 0 {
		drift := kn.anchors[u].Dist(kn.posAt(u, t, pos))
		remaining := kn.skin/2 - drift
		if remaining < 0 {
			remaining = 0
		}
		if d := t + time.Duration(remaining/seg.Speed*float64(time.Second)); d < due {
			due = d
		}
	}
	if due <= t {
		due = t + 1
	}
	kn.rebinGen[u]++
	heap.Push(&kn.heap, kinItem{due: due, id: ^u, gen: kn.rebinGen[u]})
}

// processRebin re-anchors node u if it drifted meaningfully, rescans its
// 3×3 block for new candidates and drops pairs whose anchors separated.
func (kn *kinetic) processRebin(u int32, t time.Duration, pos []geo.Point) {
	p := kn.posAt(u, t, pos)
	if kn.anchors[u].Dist(p) >= kn.skin/4 {
		kn.stats.Rebins++
		kn.anchors[u] = p
		cx, cy := kn.cellCoords(p)
		key := cellKey(cx, cy)
		if key != kn.cellOf[u] {
			old := kn.cells[kn.cellOf[u]]
			for i, x := range old {
				if x == u {
					old[i] = old[len(old)-1]
					kn.cells[kn.cellOf[u]] = old[:len(old)-1]
					break
				}
			}
			kn.cellOf[u] = key
			kn.cells[key] = append(kn.cells[key], u)
		}
		// Drop pairs whose anchors separated beyond the skin envelope.
		maxD2 := kn.side * kn.side
		lst := kn.tracked[u]
		kept := lst[:0]
		for _, idx := range lst {
			st := &kn.pairs[idx]
			other := st.u
			if other == u {
				other = st.v
			}
			if p.DistSq(kn.anchors[other]) > maxD2 {
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
	pu := kn.posAt(st.u, t, pos)
	pv := kn.posAt(st.v, t, pos)
	d2 := pu.DistSq(pv)
	linked := d2 <= kn.r2
	if linked != st.linked {
		if linked {
			kn.linkedAdj[st.u] = insertSorted(kn.linkedAdj[st.u], st.v)
			kn.linkedAdj[st.v] = insertSorted(kn.linkedAdj[st.v], st.u)
			kn.stats.LinkMakes++
		} else {
			kn.linkedAdj[st.u] = removeSorted(kn.linkedAdj[st.u], st.v)
			kn.linkedAdj[st.v] = removeSorted(kn.linkedAdj[st.v], st.u)
			kn.stats.LinkBreaks++
		}
		st.linked = linked
		kn.pendFlip(idx, linked)
	}
	kn.scheduleCert(idx, t, pu, pv)
}

// drainUntil processes every scheduled check due at or before t. With a
// position buffer (sample time) the checks use the sampled positions;
// without one (mid-window driver) they use analytic peeks.
func (kn *kinetic) drainUntil(t time.Duration, pos []geo.Point) {
	for len(kn.heap) > 0 && kn.heap[0].due <= t {
		it := heap.Pop(&kn.heap).(kinItem)
		if it.id >= 0 {
			st := &kn.pairs[it.id]
			if st.dead || st.gen != it.gen {
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

// scheduleDriver keeps one kernel event pending at the next certificate
// due time (clamped to now+kinMinGrain so grazing pairs cannot storm the
// queue; sample-time drains keep snapshots exact regardless).
func (kn *kinetic) scheduleDriver(k *sim.Kernel) {
	if len(kn.heap) == 0 {
		return
	}
	at := kn.heap[0].due
	if min := k.Now() + kinMinGrain; at < min {
		at = min
	}
	if kn.ev != nil && !kn.ev.Fired() && !kn.ev.Cancelled() {
		if kn.evAt <= at {
			return
		}
		k.Cancel(kn.ev)
	}
	kn.evAt = at
	kn.ev = k.After(at-k.Now(), "netsim.kinetic", func(kk *sim.Kernel) {
		kn.drainUntil(kk.Now(), nil)
		kn.scheduleDriver(kk)
	})
}

// csrDiffs converts the window's pending link flips plus the down-mask
// delta into the exact set of CSR edge changes between the previous and
// the new snapshot, and rolls the sample counter.
func (kn *kinetic) csrDiffs(down []bool, buf []radio.EdgeDiff) []radio.EdgeDiff {
	diffs := buf[:0]
	for i := range kn.pending {
		e := &kn.pending[i]
		if e.dead {
			continue
		}
		if idx, ok := kn.pairIdx[pairKey(e.u, e.v)]; ok {
			kn.pairs[idx].diffGen = kn.sample
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
		for _, x := range kn.linkedAdj[w] {
			idx, ok := kn.pairIdx[pairKey(int32(w), x)]
			if ok && kn.pairs[idx].diffGen == kn.sample {
				continue
			}
			if ok {
				kn.pairs[idx].diffGen = kn.sample
			}
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
