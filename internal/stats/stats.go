// Package stats collects the metrics the paper's evaluation reports:
// network traffic (message transmissions, per type and total, plus bytes)
// and query latency (the figures plot it in log scale, so the recorder
// keeps logarithmic buckets alongside exact moments). A staleness recorder
// backs the consistency auditor.
package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/protocol"
)

// DropCause classifies why a message was abandoned in flight. Fault
// campaigns are undiagnosable when every drop folds into one counter:
// "the channel ate it", "the receiver was down", "the partition cut the
// link" and "routing found no path" call for different protocol fixes,
// so the ledger keeps them apart.
type DropCause int

// Drop causes.
const (
	// DropLoss: the link-level loss draw (uniform LossRate or an
	// installed loss model such as Gilbert–Elliott) ate the reception.
	DropLoss DropCause = iota
	// DropPartition: a fault-plane link cut severed the hop.
	DropPartition
	// DropDisconnected: an endpoint was down (churn, battery, crash) at
	// origination or while the frame was in the air.
	DropDisconnected
	// DropNoRoute: routing failure — no path, hop/TTL bound exhausted,
	// greedy-forwarding void, or route discovery timed out.
	DropNoRoute
	// DropPeerDown: a wire-level send to a peer failed past the bounded
	// retry — the live-transport analogue of DropDisconnected, kept
	// separate because on real sockets "the kernel refused the write"
	// and "the simulator knew the endpoint was down" are different
	// diagnoses.
	DropPeerDown
	// DropDecode: a received datagram failed frame decoding and was
	// discarded before its kind was knowable (wire transports only).
	DropDecode
	// NumDropCauses sizes per-cause arrays.
	NumDropCauses
)

// String names the cause for metric labels.
func (c DropCause) String() string {
	switch c {
	case DropLoss:
		return "loss"
	case DropPartition:
		return "partition"
	case DropDisconnected:
		return "disconnected"
	case DropNoRoute:
		return "no-route"
	case DropPeerDown:
		return "peer-down"
	case DropDecode:
		return "decode"
	default:
		return "invalid"
	}
}

// Traffic accumulates message counters. One "transmission" is one
// link-level send: each hop of a unicast and each node's rebroadcast
// during a flood count once, matching how GloMoSim-era studies report
// "number of messages". Safe for concurrent reads while the (single
// threaded) simulation writes.
type Traffic struct {
	mu         sync.Mutex
	tx         [protocol.NumKinds]uint64
	bytes      [protocol.NumKinds]uint64
	originated [protocol.NumKinds]uint64
	delivered  [protocol.NumKinds]uint64
	dropped    [protocol.NumKinds][NumDropCauses]uint64
	// droppedUnknown counts drops whose kind is unknowable — a datagram
	// that failed frame decoding has no kind by construction, so binning
	// it under a real kind (or the invalid-kind bug counter) would lie.
	droppedUnknown [NumDropCauses]uint64
	// invalid counts records that arrived with an out-of-range kind.
	// Slot 0 of the arrays still absorbs the sample (so totals stay
	// honest), but the bug is surfaced explicitly instead of hiding in a
	// slot no report ever prints.
	invalid uint64
}

// NewTraffic returns an empty traffic ledger.
func NewTraffic() *Traffic { return &Traffic{} }

// idx maps a kind to its array slot, routing invalid kinds to the
// KindInvalid slot. Callers must bump t.invalid when it returns 0 for an
// invalid kind; use record() so the accounting cannot be forgotten.
func idx(k protocol.Kind) int {
	if !k.Valid() {
		return 0
	}
	return int(k)
}

// record returns the slot for k, counting invalid kinds visibly.
func (t *Traffic) record(k protocol.Kind) int {
	if !k.Valid() {
		t.invalid++
		return 0
	}
	return int(k)
}

// RecordTx records one link-level transmission of size bytes.
func (t *Traffic) RecordTx(k protocol.Kind, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.record(k)
	t.tx[i]++
	t.bytes[i] += uint64(bytes)
}

// RecordOriginated records a message entering the network at its origin.
func (t *Traffic) RecordOriginated(k protocol.Kind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.originated[t.record(k)]++
}

// RecordDelivered records a message reaching a destination handler.
func (t *Traffic) RecordDelivered(k protocol.Kind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delivered[t.record(k)]++
}

// RecordDropped records a message abandoned in flight, attributed to a
// cause. Out-of-range causes fold into DropNoRoute and count as an
// invalid record, mirroring how invalid kinds are surfaced.
func (t *Traffic) RecordDropped(k protocol.Kind, cause DropCause) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cause < 0 || cause >= NumDropCauses {
		t.invalid++
		cause = DropNoRoute
	}
	t.dropped[t.record(k)][cause]++
}

// RecordDroppedUnknown records a drop whose protocol kind is unknowable
// (an undecodable datagram). Out-of-range causes fold into DropNoRoute
// and count as an invalid record, mirroring RecordDropped.
func (t *Traffic) RecordDroppedUnknown(cause DropCause) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cause < 0 || cause >= NumDropCauses {
		t.invalid++
		cause = DropNoRoute
	}
	t.droppedUnknown[cause]++
}

// DroppedUnknown returns the kindless drop count for one cause.
func (t *Traffic) DroppedUnknown(cause DropCause) uint64 {
	if cause < 0 || cause >= NumDropCauses {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedUnknown[cause]
}

// Invalid returns how many records carried an out-of-range kind — zero in
// a correct simulation; anything else is an accounting bug upstream. The
// telemetry snapshot exports it as rpcc_invalid_kind_total.
func (t *Traffic) Invalid() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.invalid
}

// InvalidTx returns the transmission count absorbed by the KindInvalid
// slot (the samples behind Invalid's tx records).
func (t *Traffic) InvalidTx() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tx[0]
}

// Merge adds every counter of other into t — the cross-run aggregation
// primitive: fold per-run ledgers from independent simulations (e.g. a
// fleet of replica runs) into one combined ledger. Merge snapshots other
// under its own lock before locking t, so concurrent merges in either
// direction cannot deadlock; merging a ledger into itself doubles it,
// as the arithmetic says it should. Merging nil is a no-op.
func (t *Traffic) Merge(other *Traffic) {
	if other == nil {
		return
	}
	other.mu.Lock()
	tx, bytes := other.tx, other.bytes
	originated, delivered, dropped := other.originated, other.delivered, other.dropped
	droppedUnknown := other.droppedUnknown
	invalid := other.invalid
	other.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < protocol.NumKinds; i++ {
		t.tx[i] += tx[i]
		t.bytes[i] += bytes[i]
		t.originated[i] += originated[i]
		t.delivered[i] += delivered[i]
		for c := range t.dropped[i] {
			t.dropped[i][c] += dropped[i][c]
		}
	}
	for c := range t.droppedUnknown {
		t.droppedUnknown[c] += droppedUnknown[c]
	}
	t.invalid += invalid
}

// Tx returns the transmission count for one kind.
func (t *Traffic) Tx(k protocol.Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tx[idx(k)]
}

// TotalTx returns the total link-level transmissions across all kinds —
// the y-axis of Fig 7 and Fig 9(a).
func (t *Traffic) TotalTx() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum uint64
	for _, v := range t.tx {
		sum += v
	}
	return sum
}

// TotalBytes returns total bytes transmitted.
func (t *Traffic) TotalBytes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum uint64
	for _, v := range t.bytes {
		sum += v
	}
	return sum
}

// Delivered returns the delivery count for one kind.
func (t *Traffic) Delivered(k protocol.Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delivered[idx(k)]
}

// Originated returns the origination count for one kind.
func (t *Traffic) Originated(k protocol.Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.originated[idx(k)]
}

// Dropped returns the drop count for one kind, summed across causes —
// the figure reports only need the total; fault diagnosis reads the
// per-cause split via DroppedByCause.
func (t *Traffic) Dropped(k protocol.Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum uint64
	for _, v := range t.dropped[idx(k)] {
		sum += v
	}
	return sum
}

// DroppedByCause returns the drop count for one kind and cause.
func (t *Traffic) DroppedByCause(k protocol.Kind, cause DropCause) uint64 {
	if cause < 0 || cause >= NumDropCauses {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped[idx(k)][cause]
}

// TotalDroppedByCause sums one cause's drops across all kinds — the
// quick partition-vs-loss diagnostic a chaos run prints. The kindless
// row (undecodable frames) is included: a decode drop has no kind but
// is still a drop of that cause.
func (t *Traffic) TotalDroppedByCause(cause DropCause) uint64 {
	if cause < 0 || cause >= NumDropCauses {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := t.droppedUnknown[cause]
	for k := 0; k < protocol.NumKinds; k++ {
		sum += t.dropped[k][cause]
	}
	return sum
}

// Snapshot returns per-kind transmission counts for every kind that saw
// traffic, sorted by kind, for reports.
func (t *Traffic) Snapshot() []KindCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []KindCount
	for k := 1; k < protocol.NumKinds; k++ {
		if t.tx[k] > 0 {
			out = append(out, KindCount{Kind: protocol.Kind(k), Tx: t.tx[k], Bytes: t.bytes[k]})
		}
	}
	return out
}

// KindCount is one row of a traffic snapshot.
type KindCount struct {
	Kind  protocol.Kind
	Tx    uint64
	Bytes uint64
}

// String renders the snapshot compactly for traces and reports.
func (t *Traffic) String() string {
	snap := t.Snapshot()
	parts := make([]string, 0, len(snap))
	for _, kc := range snap {
		parts = append(parts, fmt.Sprintf("%v=%d", kc.Kind, kc.Tx))
	}
	return fmt.Sprintf("total=%d [%s]", t.TotalTx(), strings.Join(parts, " "))
}

// Latency records a duration distribution with exact moments plus
// logarithmic buckets (powers of two from 1 ms), because Fig 8 plots
// latency on a log scale spanning milliseconds to minutes.
type Latency struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [nBuckets]uint64
}

const nBuckets = 32 // 1ms * 2^31 ≈ 24 days: more than any query waits

// NewLatency returns an empty recorder.
func NewLatency() *Latency { return &Latency{min: math.MaxInt64} }

func bucketFor(d time.Duration) int {
	ms := d.Milliseconds()
	b := 0
	for ms > 0 && b < nBuckets-1 {
		ms >>= 1
		b++
	}
	return b
}

// Record adds one sample. Negative samples are clamped to zero (they can
// only arise from caller bugs; clamping keeps the ledger usable while the
// auditor flags the bug separately).
func (l *Latency) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.buckets[bucketFor(d)]++
}

// Count returns the number of samples.
func (l *Latency) Count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Mean returns the mean sample, or zero with no samples.
func (l *Latency) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Min returns the smallest sample, or zero with no samples.
func (l *Latency) Min() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from the
// log buckets: the upper edge of the bucket containing the q-th sample.
func (l *Latency) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(l.count)))
	var cum uint64
	for b, n := range l.buckets {
		cum += n
		if cum >= target {
			if b == 0 {
				return time.Millisecond
			}
			return time.Duration(int64(1)<<uint(b)) * time.Millisecond
		}
	}
	return l.max
}

// String summarises the distribution.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v max=%v",
		l.Count(), l.Mean(), l.Quantile(0.5), l.Quantile(0.99), l.Max())
}
