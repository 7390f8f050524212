package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/manetlab/rpcc/internal/sim"
)

// Snapshot is the end-of-run state of a registry: every family sorted
// by name, every metric sorted by label signature, zero metrics skipped.
// Snapshots are what the Prometheus writer renders; Merge folds
// snapshots from independent runs (replica seeds, sweep points) into one
// aggregate.
type Snapshot struct {
	// SimSeconds is the simulated time covered (summed across merges).
	SimSeconds float64
	Families   []FamilySnap
}

// FamilySnap is one metric family in a snapshot.
type FamilySnap struct {
	Name string
	Help string
	Type string // counter | gauge | histogram
	// Uppers are the histogram bucket upper bounds (+Inf implicit).
	Uppers  []float64
	Metrics []MetricSnap
}

// MetricSnap is one labelled metric.
type MetricSnap struct {
	Labels []Label
	// Value is the counter or gauge value.
	Value float64
	// Histogram fields: per-bucket (non-cumulative) counts, total count,
	// sample sum.
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Snapshot captures the hub's registry (nil hub → nil snapshot).
func (h *Hub) Snapshot() *Snapshot {
	if h == nil {
		return nil
	}
	return h.reg.Snapshot(h.simSeconds.Value())
}

// Snapshot renders the registry into its exportable form. Families with
// no non-zero metric are dropped, so snapshots carry only what the run
// actually observed. The metrics share one array, and the histograms'
// bucket counts are copied into shared chunks.
func (r *Registry) Snapshot(simSeconds float64) *Snapshot {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	snap := &Snapshot{SimSeconds: simSeconds}
	metrics := make([]MetricSnap, 0, r.series)
	var counts []uint64
	for _, f := range fams {
		start := len(metrics)
		for s := f.first; s != nil; s = s.next {
			if s.n == 0 && s.v == 0 {
				continue
			}
			m := MetricSnap{Labels: s.labels}
			switch f.typ {
			case typeCounter:
				m.Value = float64(s.n)
			case typeGauge:
				m.Value = s.v
			default:
				m.Buckets, m.Count, m.Sum = sim.Carve(&counts, len(s.counts), bucketChunk), s.n, s.v
				copy(m.Buckets, s.counts)
			}
			metrics = append(metrics, m)
		}
		if ms := metrics[start:len(metrics):len(metrics)]; len(ms) > 0 {
			slices.SortFunc(ms, func(a, b MetricSnap) int { return compareLabels(a.Labels, b.Labels) })
			snap.Families = append(snap.Families, FamilySnap{Name: f.name, Help: f.help, Type: f.typ.String(), Uppers: f.uppers, Metrics: ms})
		}
	}
	return snap
}

// compareLabels orders two sorted label sets as their rendered identities
// "k1=v1,k2=v2" compare byte by byte, without rendering them: a value may
// hold bytes below ',' and '=' (a space, a ':'), so a label-by-label order
// would differ. Sets that render alike are ordered label by label, so the
// order is total.
func compareLabels(a, b []Label) int {
	var bufA, bufB [4 * maxLabels]string
	x, y := pieces(a, bufA[:0]), pieces(b, bufB[:0])
	for len(x) > 0 && len(y) > 0 {
		n := min(len(x[0]), len(y[0]))
		if c := strings.Compare(x[0][:n], y[0][:n]); c != 0 {
			return c
		}
		if x[0] = x[0][n:]; x[0] == "" {
			x = x[1:]
		}
		if y[0] = y[0][n:]; y[0] == "" {
			y = y[1:]
		}
	}
	return cmp.Or(cmp.Compare(len(x), len(y)), slices.CompareFunc(a, b, func(l, m Label) int {
		return cmp.Or(strings.Compare(l.Key, m.Key), strings.Compare(l.Value, m.Value))
	}))
}

// pieces appends the non-empty strings whose concatenation is ls's
// rendered identity to buf.
func pieces(ls []Label, buf []string) []string {
	for i, l := range ls {
		if i > 0 {
			buf = append(buf, ",")
		}
		buf = append(buf, l.Key, "=", l.Value)
	}
	return slices.DeleteFunc(buf, func(s string) bool { return s == "" })
}

// Merge folds other into s: counters, gauges, histogram buckets and
// SimSeconds add; metrics absent on one side are copied. Families whose
// type or bucket scheme disagree are rejected — merging snapshots from
// different schema versions would silently corrupt the aggregate.
// Merging nil is a no-op. Both snapshots are in the order Snapshot gives
// (as is every Merge result and the empty snapshot), and s stays so: a
// family or metric s lacks is inserted at its place.
func (s *Snapshot) Merge(other *Snapshot) error {
	if other == nil {
		return nil
	}
	s.SimSeconds += other.SimSeconds
	for _, of := range other.Families {
		i, ok := slices.BinarySearchFunc(s.Families, of.Name, func(f FamilySnap, name string) int {
			return strings.Compare(f.Name, name)
		})
		if !ok {
			s.Families = slices.Insert(s.Families, i, FamilySnap{Name: of.Name, Help: of.Help, Type: of.Type,
				Uppers: of.Uppers, Metrics: make([]MetricSnap, 0, len(of.Metrics))})
		}
		f := &s.Families[i]
		if f.Type != of.Type || !slices.Equal(f.Uppers, of.Uppers) {
			return fmt.Errorf("telemetry: merge schema mismatch for %s", f.Name)
		}
		for _, om := range of.Metrics {
			j, ok := slices.BinarySearchFunc(f.Metrics, om.Labels, func(m MetricSnap, ls []Label) int {
				return compareLabels(m.Labels, ls)
			})
			if !ok {
				om.Buckets = slices.Clone(om.Buckets)
				f.Metrics = slices.Insert(f.Metrics, j, om)
				continue
			}
			m := &f.Metrics[j]
			m.Value += om.Value
			m.Count += om.Count
			m.Sum += om.Sum
			if len(om.Buckets) != len(m.Buckets) {
				return fmt.Errorf("telemetry: merge bucket mismatch for %s", f.Name)
			}
			for b := range m.Buckets {
				m.Buckets[b] += om.Buckets[b]
			}
		}
	}
	return nil
}

// Family returns the named family snapshot, if present.
func (s *Snapshot) Family(name string) (FamilySnap, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnap{}, false
}

// CounterValue returns the summed value of the named counter family
// across metrics matching all the given labels (empty labels match all).
func (s *Snapshot) CounterValue(name string, labels ...Label) float64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	var sum float64
	for _, m := range f.Metrics {
		if labelsMatch(m.Labels, labels) {
			sum += m.Value
		}
	}
	return sum
}

func labelsMatch(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, l := range have {
			if l.Key == w.Key && l.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
