package node

import (
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/sim"
)

// Transport is the message substrate the protocol engines run over. The
// simulator's netsim.Network satisfies it (today's deterministic path),
// and internal/wire satisfies it with real UDP sockets, so the identical
// engine binds to either without code changes.
//
// The contract mirrors the MANET broadcast-domain model the strategies
// were written against:
//
//   - Unicast delivers msg to exactly one peer, best-effort; an error
//     means the send could not even be attempted (down node, no route at
//     send time). Silent loss in flight is allowed.
//   - Flood delivers msg to every reachable node within ttl hops. The
//     origin never receives its own flood.
//   - Deliveries arrive via the per-node Receiver on the transport's
//     kernel goroutine; the engine is single-threaded on that kernel.
//   - Reachable is the MAC-layer connectivity check of §4.5: whether a
//     link-layer path currently exists between two nodes.
//   - Activity counts radio send/receive events at a node, the
//     accessibility evidence feeding the CAR coefficient.
type Transport interface {
	// Len returns the number of nodes in the broadcast domain.
	Len() int
	// Kernel returns the event kernel deliveries are scheduled on.
	Kernel() *sim.Kernel
	// SetReceiver installs node's delivery callback.
	SetReceiver(node int, r netsim.Receiver) error
	// Unicast sends msg from -> to.
	Unicast(from, to int, msg protocol.Message) error
	// Flood broadcasts msg from origin with the given hop TTL.
	Flood(origin, ttl int, msg protocol.Message) error
	// Up reports whether node is currently powered and connected.
	Up(node int) bool
	// Reachable reports whether a link-layer path exists from -> to.
	Reachable(from, to int) bool
	// Activity returns the cumulative radio activity counter for node.
	Activity(node int) uint64
}

// Compile-time conformance: the simulator network implements Transport.
var _ Transport = (*netsim.Network)(nil)
