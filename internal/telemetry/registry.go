package telemetry

import (
	"fmt"
	"slices"
	"time"

	"github.com/manetlab/rpcc/internal/sim"
)

// Label is one metric dimension. Labels are sorted by key at registration
// so a metric's identity — and every export — is independent of the order
// the caller wrote them in.
type Label struct {
	Key   string
	Value string
}

// maxLabels is the most labels one series carries: the role transitions'
// from, to and reason.
const maxLabels = 3

// seriesKey sorts labels by key into a fixed array, which with the
// family is the series' identity: a comparable value built on the
// caller's stack, so a lookup builds no string and allocates nothing. The
// insertion sort is stable: labels that repeat a key keep their order.
func seriesKey(name string, labels []Label) (k [maxLabels]Label) {
	if len(labels) > maxLabels {
		panic(fmt.Sprintf("telemetry: %s registered with %d labels, more than %d", name, len(labels), maxLabels))
	}
	for i, l := range labels {
		j := i
		for ; j > 0 && k[j-1].Key > l.Key; j-- {
			k[j] = k[j-1]
		}
		k[j] = l
	}
	return k
}

// metricType enumerates the three instrument families.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string { return [...]string{"counter", "gauge", "histogram"}[t] }

// series is one registered metric of any of the three types: its family,
// its sorted labels, its place in the family's list and the state its
// type keeps.
type series struct {
	fam    *family
	labels []Label  // carved from the registry's label chunk
	next   *series  // the family's series registered before this one
	n      uint64   // counter value; histogram sample count
	v      float64  // gauge value; histogram sample sum
	counts []uint64 // histogram: len(uppers)+1, non-cumulative per bucket
}

// Counter is a monotonically increasing count. The zero/nil counter is
// inert: every method is safe on a nil receiver, so call sites do not
// branch on whether telemetry is enabled.
type Counter series

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Value returns the current count (zero on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a value that can go up and down (final role counts, pending
// work). Like Counter it is nil-safe.
type Gauge series

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the gauge value.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution: cumulative-on-export counts
// over its family's static upper bounds (an implicit +Inf bucket follows)
// plus an exact sum and count. Buckets are fixed at registration, so
// Observe is allocation-free — the hot-path discipline the delivery plane
// requires. Nil-safe like Counter.
type Histogram series

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search over the static bounds: first bucket with upper >= v.
	uppers := h.fam.uppers
	lo, hi := 0, len(uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if uppers[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.n++
	h.v += v
}

// ObserveDuration adds one sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples (zero on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sample sum (zero on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.v
}

// Standard bucket schemes; a family keeps the slice it was registered
// with, so callers pass these and never modify them. Time buckets follow
// stats.Latency's logarithmic convention (powers of two from 1 ms),
// because both query latency and staleness span milliseconds to minutes.
var (
	TimeBuckets  = powerOfTwoSeconds(18)  // 1ms .. ~131s, then +Inf
	RatioBuckets = linear(0.05, 0.05, 20) // 0.05 .. 1, then +Inf
	hopBuckets   = linear(1, 1, 16)       // 1 .. 16 hops, then +Inf
)

// powerOfTwoSeconds returns n bounds: 0.001·2^i seconds for i in [0, n).
func powerOfTwoSeconds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.001 * float64(uint64(1)<<uint(i))
	}
	return out
}

// linear returns n bounds start, start+step, …
func linear(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// family is all metrics sharing one name (and therefore one type/help)
// and the list of its series.
type family struct {
	name   string
	help   string
	typ    metricType
	uppers []float64 // histogram families only
	first  *series   // the newest series; the rest follow by next
}

// Chunk sizes of the registry's label and bucket-count chunks.
const (
	labelChunk  = 128
	bucketChunk = 256
)

// Registry holds a run's instruments. Registration (Counter / Gauge /
// Histogram) deduplicates by name + sorted label set without allocating
// for a series that exists; new families, series, labels and bucket
// counts come from registry-owned blocks and chunks. The returned handles
// are what hot paths use. A Registry is confined to one simulation run
// and is not safe for concurrent use.
type Registry struct {
	families map[string]*family
	famPool  sim.Pool[family]
	pool     sim.Pool[series]
	series   int
	labels   []Label
	buckets  []uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// get returns (registering on first use) the series name{labels}.
func (r *Registry) get(name, help string, typ metricType, uppers []float64, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = r.famPool.New()
		*f = family{name: name, help: help, typ: typ, uppers: uppers}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as both %v and %v", name, f.typ, typ))
	}
	key := seriesKey(name, labels)
	sorted := key[:len(labels)]
	for s := f.first; s != nil; s = s.next {
		if slices.Equal(s.labels, sorted) {
			return s
		}
	}
	s := r.pool.New()
	s.fam, s.labels = f, sim.Carve(&r.labels, len(sorted), labelChunk)
	copy(s.labels, sorted)
	if typ == typeHistogram {
		s.counts = sim.Carve(&r.buckets, len(f.uppers)+1, bucketChunk)
	}
	s.next, f.first = f.first, s
	r.series++
	return s
}

// Counter returns (registering on first use) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return (*Counter)(r.get(name, help, typeCounter, nil, labels))
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return (*Gauge)(r.get(name, help, typeGauge, nil, labels))
}

// Histogram returns (registering on first use) the histogram name{labels}
// with the given ascending upper bounds (+Inf is implicit). Every
// histogram of one family must share the family's bounds.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...Label) *Histogram {
	return (*Histogram)(r.get(name, help, typeHistogram, uppers, labels))
}
