// Package telemetry is the metrics half of the observability plane: a
// zero-dependency, simulated-time-aware registry (counters, gauges,
// fixed-bucket histograms) behind a Hub. Per-event records — query
// lifecycles, role transitions, faults, flood waves — live on the causal
// trace (internal/telemetry/trace), not here.
//
// The hub keeps no count of its own beyond the delivery histograms it
// feeds from the network hook. Every other count has one owner: a layer
// that counts anyway (the traffic ledger, the query chassis, the
// auditor, the engine's poll ladder) publishes its ledger at Finish, and
// a count only telemetry needs is a handle the owning layer registers
// with Counter or Histogram when it is built or started. The hot-path
// recording methods are allocation-free and nothing observable about a
// simulation changes (no RNG draws, no events), so seeded runs stay
// byte-identical with telemetry on.
//
// Determinism invariants: exported values contain simulated time only
// (never wall-clock) and every iteration over registered metrics is
// sorted — so two runs with the same seed export identical bytes.
package telemetry

import (
	"time"

	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/stats"
)

// Level selects whether NewHub builds a hub at all.
type Level int

const (
	// LevelOff records nothing: NewHub returns the nil hub.
	LevelOff Level = iota
	// LevelMetrics keeps the aggregate counters and histograms.
	LevelMetrics
)

// Hub is one simulation run's telemetry: the registry the layers register
// their instruments on, plus the delivery histograms the network hook
// feeds. Like the rest of the per-run state it is confined to the
// single-threaded simulation loop. A nil *Hub is valid and inert — every
// method no-ops and every getter returns a nil handle — so call sites do
// not branch on whether telemetry is wired.
type Hub struct {
	reg *Registry

	// Delivery plane (fed by the netsim Tracer hook).
	delivLatency [protocol.NumKinds]*Histogram
	delivHops    [protocol.NumKinds]*Histogram

	simSeconds *Gauge

	// traffic is folded into the snapshot at Finish.
	traffic *stats.Traffic
}

// NewHub builds a hub at the given level (nil for LevelOff: callers can
// treat "off" as "no hub at all").
func NewHub(level Level) *Hub {
	if level == LevelOff {
		return nil
	}
	h := &Hub{reg: NewRegistry()}
	for k := 1; k < protocol.NumKinds; k++ {
		kind := Label{"kind", protocol.Kind(k).String()}
		h.delivLatency[k] = h.reg.Histogram("rpcc_delivery_latency_seconds",
			"Origination-to-delivery latency per message kind.", TimeBuckets, kind)
		h.delivHops[k] = h.reg.Histogram("rpcc_delivery_hops",
			"Link-level hops traversed per delivered message.", hopBuckets, kind)
	}
	h.simSeconds = h.reg.Gauge("rpcc_sim_seconds", "Simulated time covered by this snapshot.")
	return h
}

// Counter returns a nil-safe counter handle: on a nil hub it returns nil,
// which every Counter method tolerates. The intended pattern is one call
// per instrument when its layer is built or started (or, for a ledger
// published at Finish, once then), not per event.
func (h *Hub) Counter(name, help string, labels ...Label) *Counter {
	if h == nil {
		return nil
	}
	return h.reg.Counter(name, help, labels...)
}

// Histogram returns a nil-safe histogram handle over the given bucket
// bounds (TimeBuckets, RatioBuckets), registered like Counter.
func (h *Hub) Histogram(name, help string, uppers []float64, labels ...Label) *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.Histogram(name, help, uppers, labels...)
}

// Tracer adapts the hub to the network layer's delivery hook, recording
// per-kind delivery latency and hop histograms. Returns nil on a nil hub
// so netsim keeps its zero-cost no-tracer path.
func (h *Hub) Tracer() netsim.Tracer {
	if h == nil {
		return nil
	}
	return func(at time.Duration, node int, msg protocol.Message, meta netsim.Meta) {
		k := msg.Kind
		if !k.Valid() {
			return
		}
		h.delivLatency[k].ObserveDuration(meta.At - meta.SentAt)
		h.delivHops[k].Observe(float64(meta.Hops))
	}
}

// AttachTraffic registers the run's traffic ledger to be folded into the
// snapshot at Finish.
func (h *Hub) AttachTraffic(t *stats.Traffic) {
	if h != nil {
		h.traffic = t
	}
}

// Finish stamps the simulated end time and folds the attached traffic
// ledger into the registry. Call once, after the kernel stops.
func (h *Hub) Finish(at time.Duration) {
	if h == nil {
		return
	}
	h.simSeconds.Set(at.Seconds())
	if h.traffic != nil {
		for k := 1; k < protocol.NumKinds; k++ {
			kind := protocol.Kind(k)
			lb := Label{"kind", kind.String()}
			if v := h.traffic.Tx(kind); v > 0 {
				h.reg.Counter("rpcc_tx_total", "Link-level transmissions.", lb).Add(v)
			}
			if v := h.traffic.Originated(kind); v > 0 {
				h.reg.Counter("rpcc_originated_total", "Messages entering the network.", lb).Add(v)
			}
			if v := h.traffic.Delivered(kind); v > 0 {
				h.reg.Counter("rpcc_delivered_total", "Messages reaching a handler.", lb).Add(v)
			}
			for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
				if v := h.traffic.DroppedByCause(kind, c); v > 0 {
					h.reg.Counter("rpcc_dropped_total", "Messages abandoned in flight, by cause.",
						lb, Label{"cause", c.String()}).Add(v)
				}
			}
		}
		// Kindless drops (undecodable datagrams on a wire transport) get
		// their own kind value: "unknown" is honest where any real kind
		// would be a guess.
		for c := stats.DropCause(0); c < stats.NumDropCauses; c++ {
			if v := h.traffic.DroppedUnknown(c); v > 0 {
				h.reg.Counter("rpcc_dropped_total", "Messages abandoned in flight, by cause.",
					Label{"kind", "unknown"}, Label{"cause", c.String()}).Add(v)
			}
		}
		h.reg.Counter("rpcc_tx_bytes_total", "Bytes transmitted.").Add(h.traffic.TotalBytes())
		// Invalid-kind records are surfaced explicitly (they indicate an
		// accounting bug upstream), never silently folded into a real kind.
		h.reg.Counter("rpcc_invalid_kind_total",
			"Traffic records carrying an out-of-range protocol kind.").Add(h.traffic.Invalid())
	}
}
