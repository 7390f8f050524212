package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Label is one metric dimension. Labels are sorted by key at registration
// so a metric's identity — and every export — is independent of the order
// the caller wrote them in.
type Label struct {
	Key   string
	Value string
}

// metricType enumerates the three instrument families.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count. The zero/nil counter is
// inert: every method is safe on a nil receiver, so call sites do not
// branch on whether telemetry is enabled.
type Counter struct {
	labels []Label
	n      uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

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
type Gauge struct {
	labels []Label
	v      float64
}

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
// over static upper bounds plus an exact sum and count. Buckets are fixed
// at registration, so Observe is allocation-free — the hot-path
// discipline the delivery plane requires. Nil-safe like Counter.
type Histogram struct {
	labels []Label
	uppers []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(uppers)+1, non-cumulative per bucket
	count  uint64
	sum    float64
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search over the static bounds: first bucket with upper >= v.
	lo, hi := 0, len(h.uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.uppers[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.count++
	h.sum += v
}

// ObserveDuration adds one sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples (zero on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sample sum (zero on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
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

// family is all metrics sharing one name (and therefore one type/help).
type family struct {
	name    string
	help    string
	typ     metricType
	uppers  []float64 // histogram families only
	order   []string  // label signatures in registration order
	byLabel map[string]any
}

// Registry holds a run's instruments. Registration (Counter / Gauge /
// Histogram) deduplicates by name + label set and may allocate; the
// returned handles are what hot paths use. A Registry is confined to one
// simulation run (like everything below experiment.Run) and is not safe
// for concurrent use.
type Registry struct {
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature renders a sorted label set into a stable identity string.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a copy of the label set sorted by key. The sort is
// stable, so labels that repeat a key keep their given order, and it
// allocates nothing beyond the copy.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	slices.SortStableFunc(out, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return out
}

func (r *Registry) familyFor(name, help string, typ metricType, uppers []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, uppers: uppers, byLabel: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as both %v and %v", name, f.typ, typ))
	}
	return f
}

// Counter returns (registering on first use) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, typeCounter, nil)
	ls := sortLabels(labels)
	sig := signature(ls)
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Counter)
	}
	c := &Counter{labels: ls}
	f.byLabel[sig] = c
	f.order = append(f.order, sig)
	return c
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, typeGauge, nil)
	ls := sortLabels(labels)
	sig := signature(ls)
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{labels: ls}
	f.byLabel[sig] = g
	f.order = append(f.order, sig)
	return g
}

// Histogram returns (registering on first use) the histogram name{labels}
// with the given ascending upper bounds (+Inf is implicit). Every
// histogram of one family must share the family's bounds.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...Label) *Histogram {
	f := r.familyFor(name, help, typeHistogram, uppers)
	ls := sortLabels(labels)
	sig := signature(ls)
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{labels: ls, uppers: f.uppers, counts: make([]uint64, len(f.uppers)+1)}
	f.byLabel[sig] = h
	f.order = append(f.order, sig)
	return h
}
