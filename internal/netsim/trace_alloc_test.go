package netsim

import (
	"testing"

	"github.com/manetlab/rpcc/internal/protocol"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// measureUnicastAllocs reports the steady-state allocations of 200
// delivered unicasts on a warmed-up two-node chain.
func measureUnicastAllocs(t *testing.T, msg protocol.Message) float64 {
	t.Helper()
	h := newHarness(t, 2, false)
	// Warm up: first delivery populates the route cache and freelists.
	if err := h.net.Unicast(0, 1, msg); err != nil {
		t.Fatal(err)
	}
	h.k.Run()
	h.got = h.got[:0]
	return testing.AllocsPerRun(1, func() {
		for range 200 {
			if err := h.net.Unicast(0, 1, msg); err != nil {
				t.Fatal(err)
			}
			h.k.Run()
			h.got = h.got[:0]
		}
	})
}

// TestTraceDisabledDeliveryAllocFree pins the "invisible when off" half
// of the tracing contract on the delivery hot path: with no collector
// installed, a message carrying a trace context costs exactly as many
// allocations as an untraced one (the hook is a single nil check), and
// every nil-collector trace call is itself allocation-free, so measured
// numbers are never polluted by an accidentally allocating hook.
func TestTraceDisabledDeliveryAllocFree(t *testing.T) {
	plain := testMsg(protocol.KindPoll)
	traced := plain
	traced.Trace = protocol.TraceContext{TraceID: 1, SpanID: 2}
	if p, tr := measureUnicastAllocs(t, plain), measureUnicastAllocs(t, traced); tr > p {
		t.Errorf("200 trace-disabled deliveries of a traced message allocate %.0f objects, untraced %.0f", tr, p)
	}

	var c *ctrace.Collector
	tc := protocol.TraceContext{TraceID: 1, SpanID: 2}
	if total := testing.AllocsPerRun(1, func() {
		for range 200 {
			tc = c.Emit(tc, 0, ctrace.PhaseTransit, "hop", 0, 0)
			c.Finish(tc, 0)
			_ = c.StartTrace(0, 0, ctrace.PhaseQuery, "q")
		}
	}); total != 0 {
		t.Errorf("200 rounds of nil-collector trace calls allocate %.0f objects, want 0", total)
	}
}
