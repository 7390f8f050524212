package telemetry

import (
	"fmt"
	"sort"
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
// actually observed.
func (r *Registry) Snapshot(simSeconds float64) *Snapshot {
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	snap := &Snapshot{SimSeconds: simSeconds}
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnap{Name: f.name, Help: f.help, Type: f.typ.String()}
		if f.typ == typeHistogram {
			fs.Uppers = f.uppers
		}
		sigs := make([]string, len(f.order))
		copy(sigs, f.order)
		sort.Strings(sigs)
		for _, sig := range sigs {
			switch m := f.byLabel[sig].(type) {
			case *Counter:
				if m.n == 0 {
					continue
				}
				fs.Metrics = append(fs.Metrics, MetricSnap{Labels: m.labels, Value: float64(m.n)})
			case *Gauge:
				if m.v == 0 {
					continue
				}
				fs.Metrics = append(fs.Metrics, MetricSnap{Labels: m.labels, Value: m.v})
			case *Histogram:
				if m.count == 0 {
					continue
				}
				buckets := make([]uint64, len(m.counts))
				copy(buckets, m.counts)
				fs.Metrics = append(fs.Metrics, MetricSnap{
					Labels: m.labels, Buckets: buckets, Count: m.count, Sum: m.sum,
				})
			}
		}
		if len(fs.Metrics) > 0 {
			snap.Families = append(snap.Families, fs)
		}
	}
	return snap
}

// Merge folds other into s: counters, gauges, histogram buckets and
// SimSeconds add; metrics absent on one side are copied. Families whose
// type or bucket scheme disagree are rejected — merging snapshots from
// different schema versions would silently corrupt the aggregate.
// Merging nil is a no-op.
func (s *Snapshot) Merge(other *Snapshot) error {
	if other == nil {
		return nil
	}
	s.SimSeconds += other.SimSeconds
	byName := make(map[string]int, len(s.Families))
	for i, f := range s.Families {
		byName[f.Name] = i
	}
	for _, of := range other.Families {
		i, ok := byName[of.Name]
		if !ok {
			copied := of
			copied.Metrics = append([]MetricSnap(nil), of.Metrics...)
			for j := range copied.Metrics {
				copied.Metrics[j].Buckets = append([]uint64(nil), of.Metrics[j].Buckets...)
			}
			s.Families = append(s.Families, copied)
			continue
		}
		f := &s.Families[i]
		if f.Type != of.Type || !sameUppers(f.Uppers, of.Uppers) {
			return fmt.Errorf("telemetry: merge schema mismatch for %s", f.Name)
		}
		bySig := make(map[string]int, len(f.Metrics))
		for j, m := range f.Metrics {
			bySig[signature(m.Labels)] = j
		}
		for _, om := range of.Metrics {
			j, ok := bySig[signature(om.Labels)]
			if !ok {
				copied := om
				copied.Buckets = append([]uint64(nil), om.Buckets...)
				f.Metrics = append(f.Metrics, copied)
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
	// Restore deterministic order after appends.
	sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
	for i := range s.Families {
		ms := s.Families[i].Metrics
		sort.Slice(ms, func(a, b int) bool { return signature(ms[a].Labels) < signature(ms[b].Labels) })
	}
	return nil
}

func sameUppers(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
