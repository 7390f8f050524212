// Package protocol defines the wire messages of the cache-consistency
// protocols: the ten RPCC message types of Fig 6(a) plus the generic data
// query/fetch messages the cooperative-caching substrate needs and the
// invalidation-report message used by the simple push baseline.
//
// Each message reports a nominal wire size so the simulator can account
// traffic in bytes as well as transmissions. Sizes follow the usual
// mobile-caching simulation convention: small fixed-size control headers
// and a larger payload for messages that carry data item content.
package protocol

import (
	"fmt"

	"github.com/manetlab/rpcc/internal/data"
)

// Kind enumerates every message type in the system.
type Kind int

// Message kinds. Values start at 1 so the zero Kind is detectably unset.
const (
	KindInvalid Kind = iota
	// RPCC messages (Fig 6a).
	KindInvalidation // source host -> flood: periodic version announcement
	KindUpdate       // source host -> relay peers: eager new content push
	KindGetNew       // relay peer -> source host: fetch missed update
	KindSendNew      // source host -> relay peer: reply to GET_NEW
	KindApply        // candidate -> source host: request relay promotion
	KindApplyAck     // source host -> candidate: grant promotion
	KindCancel       // relay peer -> source host: resign relay role
	KindPoll         // cache node -> flood: find a relay peer / validate
	KindPollAckA     // relay peer -> cache node: your copy is up-to-date
	KindPollAckB     // relay peer -> cache node: stale; here is new content
	// Cooperative-caching substrate messages.
	KindDataRequest // cache miss: flood searching for any copy
	KindDataReply   // copy holder -> requester: content
	// Baseline messages.
	KindIR        // simple push: periodic invalidation report flood
	KindPullPoll  // simple pull: per-query poll flooded toward source
	KindPullReply // simple pull: source's answer carrying new content
	KindPullAck   // simple pull: source's answer when the copy is current
	// Routing-layer messages (DSR-style on-demand source routing).
	KindRREQ // route request flood
	KindRREP // route reply carrying the discovered path
	KindRERR // route error: a source-routed hop found its link broken
	kindMax  // sentinel for validation and dense counters
)

// NumKinds is the number of valid message kinds; stats arrays index by
// Kind directly.
const NumKinds = int(kindMax)

// kindNames is indexed by Kind.
var kindNames = [...]string{
	KindInvalid:      "INVALID",
	KindInvalidation: "INVALIDATION",
	KindUpdate:       "UPDATE",
	KindGetNew:       "GET_NEW",
	KindSendNew:      "SEND_NEW",
	KindApply:        "APPLY",
	KindApplyAck:     "APPLY_ACK",
	KindCancel:       "CANCEL",
	KindPoll:         "POLL",
	KindPollAckA:     "POLL_ACK_A",
	KindPollAckB:     "POLL_ACK_B",
	KindDataRequest:  "DATA_REQUEST",
	KindDataReply:    "DATA_REPLY",
	KindIR:           "IR",
	KindPullPoll:     "PULL_POLL",
	KindPullReply:    "PULL_REPLY",
	KindPullAck:      "PULL_ACK",
	KindRREQ:         "RREQ",
	KindRREP:         "RREP",
	KindRERR:         "RERR",
}

// String renders the kind in the paper's message-name style.
func (k Kind) String() string {
	if k <= KindInvalid || k >= kindMax {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k is one of the defined message kinds.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// Nominal wire sizes in bytes. Control messages carry identifiers and
// version numbers; data-bearing messages add the item payload.
const (
	headerBytes  = 32   // ids, versions, TTL, addressing
	payloadBytes = 1024 // one data item's content
)

// TraceContext is the causal-tracing triple threaded through protocol
// messages: the trace (one end-to-end operation: a query, an update
// round, an invalidation wave), the span that caused this message to be
// sent, and that span's parent. A zero TraceContext means "untraced";
// TraceID 0 is reserved for that meaning and never assigned to a live
// trace.
//
// The context is observability metadata, not protocol state: no handler
// may branch on it, it contributes zero bytes to Message.Size() (so the
// simulated transmission timing of a traced run is identical to an
// untraced one), and on the wire it rides an optional version-gated
// frame extension that old decoders never see.
type TraceContext struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// Zero reports whether the context is unset (the message is untraced).
func (t TraceContext) Zero() bool { return t == TraceContext{} }

// Message is a protocol message. A single struct covers all kinds; unused
// fields stay zero. Keeping one concrete type (rather than an interface
// per kind) keeps the simulator's hot path allocation-free and the
// per-kind traffic accounting trivial.
type Message struct {
	Kind Kind
	Item data.ItemID
	// Origin is the host that created the message (the paper's OP/RP/CP
	// field depending on kind).
	Origin int
	// Version is the version the message announces or acknowledges.
	Version data.Version
	// Copy is the data content for content-bearing kinds (UPDATE,
	// SEND_NEW, POLL_ACK_B, DATA_REPLY, PULL_REPLY).
	Copy data.Copy
	// Seq disambiguates poll/request rounds so late replies to an
	// abandoned round are ignored.
	Seq uint64
	// Miss marks a poll from a requester holding no copy at all: the
	// authority must reply with content, not a bare acknowledgement.
	Miss bool
	// Path is the source route for DSR-routed messages (and the
	// discovered route inside RREP); empty under oracle routing.
	Path []int
	// Trace is the causal-tracing context of the send that produced this
	// message; zero when tracing is off. It is invisible to Size(),
	// Validate() and every protocol handler.
	Trace TraceContext
}

// carriesContent reports whether the kind includes a full data payload.
func (k Kind) carriesContent() bool {
	switch k {
	case KindUpdate, KindSendNew, KindPollAckB, KindDataReply, KindPullReply:
		return true
	default:
		return false
	}
}

// Size returns the nominal wire size of the message in bytes. Source
// routes add four bytes per hop, as in DSR's source-route header.
func (m Message) Size() int {
	size := headerBytes + 4*len(m.Path)
	if m.Kind.carriesContent() {
		size += payloadBytes
	}
	return size
}

// Validate reports structural problems in a message: unset kind, missing
// payload on content-bearing kinds, or a payload inconsistent with the
// claimed version.
func (m Message) Validate() error {
	if !m.Kind.Valid() {
		return fmt.Errorf("protocol: invalid kind %v", m.Kind)
	}
	if m.Kind.carriesContent() {
		if m.Copy.ID != m.Item {
			return fmt.Errorf("protocol: %v carries copy of %v, item field says %v", m.Kind, m.Copy.ID, m.Item)
		}
		if !m.Copy.Consistent() {
			return fmt.Errorf("protocol: %v carries torn copy %v v%d", m.Kind, m.Copy.ID, m.Copy.Version)
		}
	}
	return nil
}

// String renders a compact trace line, e.g. "UPDATE(D3 v7 from M2)".
func (m Message) String() string {
	return fmt.Sprintf("%v(%v v%d from M%d)", m.Kind, m.Item, m.Version, m.Origin)
}
