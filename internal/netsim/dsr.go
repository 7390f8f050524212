package netsim

import (
	"time"

	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
)

// RoutingMode selects how unicasts find their way across the MANET.
type RoutingMode int

// Routing modes. Values start at 1 so the zero value is detectably unset
// (New treats it as RoutingOracle for backward compatibility).
const (
	routingUnset RoutingMode = iota
	// RoutingOracle forwards hop-by-hop along BFS shortest paths on the
	// current topology snapshot — an idealised routing layer with zero
	// control overhead. This is the default; it keeps the consistency
	// protocols' message counts uncontaminated by routing traffic.
	RoutingOracle
	// RoutingDSR performs on-demand source routing in the style of DSR
	// (Johnson & Maltz, 1996) — the routing protocol the paper's
	// GloMoSim evaluation ran over: RREQ floods discover routes, RREP
	// carries them back, data packets carry the full source route, and
	// broken links trigger RERR plus rediscovery. All routing control
	// traffic is charged to the traffic ledger (kinds RREQ/RREP/RERR).
	RoutingDSR
)

// DSR tuning constants. Route lifetimes are short because the topology
// changes every few seconds at vehicular speeds.
const (
	dsrRouteLifetime    = 10 * time.Second
	dsrDiscoveryTimeout = 500 * time.Millisecond
	dsrMaxPending       = 16 // queued messages per (node, destination)
)

// dsrRoute is one cached source route.
type dsrRoute struct {
	path []int // path[0] == owner node, path[len-1] == destination
	at   time.Duration
}

// pendingMsg is one message queued behind route discovery, remembering
// when it originally entered the network so delivery latency accounts
// the discovery wait too.
type pendingMsg struct {
	msg    protocol.Message
	sentAt time.Duration
}

// dsrNode is one node's DSR state.
type dsrNode struct {
	routes  map[int]dsrRoute
	pending map[int][]pendingMsg
	// discovering marks destinations with an RREQ in flight so repeated
	// sends do not flood repeatedly.
	discovering map[int]bool
}

func newDSRNode() *dsrNode {
	return &dsrNode{
		routes:      make(map[int]dsrRoute),
		pending:     make(map[int][]pendingMsg),
		discovering: make(map[int]bool),
	}
}

// initDSR allocates per-node routing state; called from New when the
// configured mode is RoutingDSR.
func (n *Network) initDSR() {
	n.dsr = make([]*dsrNode, n.Len())
	for i := range n.dsr {
		n.dsr[i] = newDSRNode()
	}
}

// dsrUnicast is the RoutingDSR implementation of Unicast's delivery part:
// use a cached route if fresh, otherwise queue the message and discover.
func (n *Network) dsrUnicast(from, to int, msg protocol.Message) {
	st := n.dsr[from]
	if r, ok := st.routes[to]; ok {
		if n.k.Now()-r.at <= dsrRouteLifetime {
			msg.Path = r.path
			n.dsrForward(msg, 0, n.k.Now())
			return
		}
		delete(st.routes, to)
	}
	if len(st.pending[to]) >= dsrMaxPending {
		n.traffic.RecordDropped(msg.Kind, stats.DropNoRoute)
		return
	}
	st.pending[to] = append(st.pending[to], pendingMsg{msg: msg, sentAt: n.k.Now()})
	if st.discovering[to] {
		return
	}
	st.discovering[to] = true
	n.dsrDiscover(from, to)
	n.k.After(dsrDiscoveryTimeout, "dsr.discovery.timeout", func(*sim.Kernel) {
		st.discovering[to] = false
		// Anything still queued found no route in time.
		for _, m := range st.pending[to] {
			n.traffic.RecordDropped(m.msg.Kind, stats.DropNoRoute)
		}
		delete(st.pending, to)
	})
}

// dsrDiscover floods a route request toward target. The accumulated path
// rides in the RREQ; the target answers with an RREP source-routed back
// along the reverse path.
func (n *Network) dsrDiscover(from, target int) {
	n.traffic.RecordOriginated(protocol.KindRREQ)
	if !n.Up(from) {
		n.traffic.RecordDropped(protocol.KindRREQ, stats.DropDisconnected)
		return
	}
	// RREQ floods share the pooled duplicate-suppression state with data
	// floods; the id is unused here (RREQs are routing control).
	st := n.acquireFlood()
	st.visited[from] = true
	n.rreqTransmit(from, target, []int{from}, st, n.cfg.MaxRouteHops)
	if st.pending == 0 {
		n.releaseFlood(st)
	}
}

func (n *Network) rreqTransmit(node, target int, path []int, st *floodState, ttl int) {
	if !n.Up(node) || ttl <= 0 {
		return
	}
	g := n.Graph()
	req := protocol.Message{Kind: protocol.KindRREQ, Origin: path[0], Path: path}
	n.traffic.RecordTx(protocol.KindRREQ, req.Size())
	n.spendTx(node)
	delay := n.txDelay(node, req.Size())
	for _, v := range g.Neighbors(node) {
		if st.visited[v] {
			continue
		}
		st.visited[v] = true
		st.pending++
		v := v
		// Each receiver gets its own copy of the grown path.
		grown := make([]int, len(path)+1)
		copy(grown, path)
		grown[len(path)] = v
		n.k.After(delay, "dsr.rreq", func(*sim.Kernel) {
			if n.Up(v) && !n.cut(node, v) && !n.lost() {
				n.spendRx(v)
				if v == target {
					n.dsrReply(grown)
				} else {
					n.rreqTransmit(v, target, grown, st, ttl-1)
				}
			}
			if st.pending--; st.pending == 0 {
				n.releaseFlood(st)
			}
		})
	}
}

// dsrReply sends the discovered route back to the requester along the
// reversed path.
func (n *Network) dsrReply(found []int) {
	// The target also learns the reverse route for free.
	target := found[len(found)-1]
	n.dsrLearn(target, reversePath(found))

	rep := protocol.Message{
		Kind:   protocol.KindRREP,
		Origin: target,
		Path:   reversePath(found),
	}
	n.traffic.RecordOriginated(protocol.KindRREP)
	n.dsrForward(rep, 0, n.k.Now())
}

// dsrLearn caches a route at its first node.
func (n *Network) dsrLearn(node int, path []int) {
	if len(path) < 2 || path[0] != node {
		return
	}
	dst := path[len(path)-1]
	n.dsr[node].routes[dst] = dsrRoute{path: path, at: n.k.Now()}
}

// dsrHandleRREP runs when a route reply reaches the original requester:
// cache the route (the RREP's path reversed is requester → target) and
// flush queued messages.
func (n *Network) dsrHandleRREP(node int, msg protocol.Message) {
	route := reversePath(msg.Path)
	if len(route) < 2 || route[0] != node {
		return
	}
	dst := route[len(route)-1]
	st := n.dsr[node]
	st.routes[dst] = dsrRoute{path: route, at: n.k.Now()}
	st.discovering[dst] = false
	queued := st.pending[dst]
	delete(st.pending, dst)
	for _, m := range queued {
		m.msg.Path = route
		n.dsrForward(m.msg, 0, m.sentAt)
	}
}

// dsrForward moves a source-routed message one hop along msg.Path[idx] →
// msg.Path[idx+1], checking the link against the current topology. A
// broken link drops the message and, for data messages, reports a RERR to
// the route's origin so it purges the stale route.
func (n *Network) dsrForward(msg protocol.Message, idx int, sentAt time.Duration) {
	path := msg.Path
	if idx+1 >= len(path) {
		return
	}
	cur, next := path[idx], path[idx+1]
	if !n.Up(cur) {
		n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
		return
	}
	g := n.Graph()
	if !g.Connected(cur, next) {
		n.traffic.RecordDropped(msg.Kind, stats.DropNoRoute)
		n.dsrRouteError(msg, cur, idx)
		return
	}
	n.traffic.RecordTx(msg.Kind, msg.Size())
	n.spendTx(cur)
	n.k.After(n.txDelay(cur, msg.Size()), "dsr.hop", func(*sim.Kernel) {
		switch {
		case !n.Up(next):
			n.traffic.RecordDropped(msg.Kind, stats.DropDisconnected)
			n.dsrRouteError(msg, cur, idx)
			return
		case n.cut(cur, next):
			n.traffic.RecordDropped(msg.Kind, stats.DropPartition)
			n.dsrRouteError(msg, cur, idx)
			return
		case n.lost():
			n.traffic.RecordDropped(msg.Kind, stats.DropLoss)
			n.dsrRouteError(msg, cur, idx)
			return
		}
		n.spendRx(next)
		if idx+2 == len(path) {
			// Final hop: routing control is consumed by the layer, data
			// goes up to the receiver.
			switch msg.Kind {
			case protocol.KindRREP:
				n.dsrHandleRREP(next, msg)
			case protocol.KindRERR:
				n.dsrHandleRERR(next, msg)
			default:
				n.deliver(next, msg, Meta{Hops: len(path) - 1, At: n.k.Now(), SentAt: sentAt})
			}
			return
		}
		n.dsrForward(msg, idx+1, sentAt)
	})
}

// dsrRouteError notifies the route origin that the link after position
// idx is broken. Control messages fail silently (their own timeouts
// recover); data messages trigger the report when the breaking node is
// not the origin itself.
func (n *Network) dsrRouteError(msg protocol.Message, at, idx int) {
	if msg.Kind == protocol.KindRREP || msg.Kind == protocol.KindRERR {
		return
	}
	origin := msg.Path[0]
	// The origin purges immediately when it is the one observing the
	// break; otherwise a RERR races back along the working prefix.
	dst := msg.Path[len(msg.Path)-1]
	if at == origin {
		delete(n.dsr[origin].routes, dst)
		return
	}
	back := make([]int, idx+1)
	for i := 0; i <= idx; i++ {
		back[i] = msg.Path[idx-i]
	}
	rerr := protocol.Message{
		Kind:   protocol.KindRERR,
		Origin: at,
		// Seq carries the unreachable destination so the origin knows
		// which route to purge.
		Seq:  uint64(dst),
		Path: back,
	}
	n.traffic.RecordOriginated(protocol.KindRERR)
	n.dsrForward(rerr, 0, n.k.Now())
}

// dsrHandleRERR purges the failed route at the origin.
func (n *Network) dsrHandleRERR(node int, msg protocol.Message) {
	delete(n.dsr[node].routes, int(msg.Seq))
}

func reversePath(p []int) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[len(p)-1-i] = v
	}
	return out
}
