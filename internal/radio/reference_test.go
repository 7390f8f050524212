package radio

import "github.com/manetlab/rpcc/internal/geo"

// The references the equivalence tests compare against: Build, the
// O(n²) all-pairs build, and a per-call BFS free of the route cache and
// its repair.

// newGraph builds a standalone snapshot with a throwaway builder.
func newGraph(pos []geo.Point, down []bool, commRange float64, stamp uint64) (*Graph, error) {
	return NewGraphBuilder().Build(pos, down, commRange, stamp)
}

// hopsFrom runs a fresh BFS from src over g's rows and returns the hop
// distance to every node (Unreachable where no path exists, 0 for src
// itself). A down or out-of-range source yields all-Unreachable.
func hopsFrom(g *Graph, src int) []int {
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.Up(src) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// nextHopRef is NextHop by a fresh BFS from dst: the lowest-id neighbour
// of src nearest to dst.
func nextHopRef(g *Graph, src, dst int) int {
	if src == dst || !g.Up(src) || !g.Up(dst) {
		return Unreachable
	}
	dist := hopsFrom(g, dst)
	best := Unreachable
	for _, v := range g.Neighbors(src) {
		if dist[v] != Unreachable && (best == Unreachable || dist[v] < dist[best]) {
			best = int(v)
		}
	}
	return best
}

// tableSynced reports the log position dst's table is current to, and
// whether dst has a live table, at whichever width g's cache has.
func tableSynced(g *Graph, dst int) (int, bool) {
	switch r := g.routes.(type) {
	case *routes[int16]:
		return r.synced(dst)
	case *routes[int32]:
		return r.synced(dst)
	}
	return 0, false
}

func (r *routes[D]) synced(dst int) (int, bool) {
	if r.slot == nil || r.slot[dst] == 0 {
		return 0, false
	}
	return r.tabs[r.slot[dst]-1].synced, true
}
