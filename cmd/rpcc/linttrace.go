package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

// lintTrace validates causal-trace span JSONL files (-trace-out of run,
// scale, wire or rpccd). Each file must be in canonical (StartNs,
// Region, Seq) order, the order every producer must emit for
// byte-identical same-seed output; the files then merge into one trace
// (a daemon's spans parent on its peers'), which must satisfy:
//
//   - every line parses as a span with a non-zero trace and span id, a
//     unique span id, and a phase from the closed vocabulary
//     (ctrace.Phases)
//   - role and fault roots are instantaneous; a role span is always a
//     root; an annotation sits only on a root of phase query, role or
//     fault, and the query fields (level, served, staleness, verdict)
//     only on phase query, the election coefficients only on phase role
//   - every non-root ParentSpanID resolves to a span in the same trace
//   - parent chains are acyclic and terminate at a root
//   - intervals are well-formed (end >= start) and causally nested on
//     the start side: a child starts no earlier than its parent minus
//     the skew allowance (zero for sim traces; wire traces need the
//     collector's clock-skew slack). End-side containment is deliberately
//     NOT required — transit and serve spans legitimately outlive a poll
//     stage that escalated past them.
//
// Returns span/trace/root counts for the ok line.
func lintTrace(paths []string, skew time.Duration) (spans, traces, roots int, err error) {
	sets, err := readSpanFiles(paths)
	if err != nil {
		return 0, 0, 0, err
	}
	for i, set := range sets {
		for j := 1; j < len(set); j++ {
			s, p := set[j], set[j-1]
			if s.StartNs < p.StartNs ||
				(s.StartNs == p.StartNs && (s.Region < p.Region ||
					(s.Region == p.Region && s.Seq < p.Seq))) {
				return 0, 0, 0, fmt.Errorf("%s: spans %d,%d out of canonical (start,region,seq) order", paths[i], j, j+1)
			}
		}
	}
	path := strings.Join(paths, ",")
	all := ctrace.Merge(sets...)
	if len(all) == 0 {
		return 0, 0, 0, fmt.Errorf("%s: empty trace", path)
	}

	byID := make(map[uint64]int, len(all))
	traceSet := make(map[uint64]bool)
	for i, s := range all {
		if s.ID == 0 || s.Trace == 0 {
			return 0, 0, 0, fmt.Errorf("%s: span %d has zero id (id=%x trace=%x)", path, i+1, s.ID, s.Trace)
		}
		if prev, dup := byID[s.ID]; dup {
			return 0, 0, 0, fmt.Errorf("%s: span id %x duplicated (spans %d and %d)", path, s.ID, prev+1, i+1)
		}
		byID[s.ID] = i
		traceSet[s.Trace] = true
		if s.EndNs < s.StartNs {
			return 0, 0, 0, fmt.Errorf("%s: span %x ends before it starts [%d..%d]", path, s.ID, s.StartNs, s.EndNs)
		}
		if !slices.Contains(ctrace.Phases, s.Phase) {
			return 0, 0, 0, fmt.Errorf("%s: span %x has unknown phase %q", path, s.ID, s.Phase)
		}
		if err := lintAnnot(s); err != nil {
			return 0, 0, 0, fmt.Errorf("%s: span %x: %v", path, s.ID, err)
		}
		if s.Parent == 0 {
			roots++
		}
	}

	for i, s := range all {
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			return 0, 0, 0, fmt.Errorf("%s: span %x has unresolved parent %x", path, s.ID, s.Parent)
		}
		p := all[pi]
		if p.Trace != s.Trace {
			return 0, 0, 0, fmt.Errorf("%s: span %x (trace %x) parented across traces to %x (trace %x)", path, s.ID, s.Trace, p.ID, p.Trace)
		}
		if s.StartNs < p.StartNs-skew.Nanoseconds() {
			return 0, 0, 0, fmt.Errorf("%s: span %x starts %dns before its parent %x (skew allowance %v)",
				path, s.ID, p.StartNs-s.StartNs, p.ID, skew)
		}
		// Walk the parent chain; a cycle revisits i before reaching a root.
		seen := map[int]bool{i: true}
		for j := pi; ; {
			if seen[j] {
				return 0, 0, 0, fmt.Errorf("%s: span %x is on a parent cycle", path, s.ID)
			}
			seen[j] = true
			if all[j].Parent == 0 {
				break
			}
			nj, ok := byID[all[j].Parent]
			if !ok {
				break // reported above for that span
			}
			j = nj
		}
	}
	return len(all), len(traceSet), roots, nil
}

// lintAnnot checks the two event phases and where annotations sit.
func lintAnnot(s ctrace.Span) error {
	event := s.Phase == ctrace.PhaseRole || s.Phase == ctrace.PhaseFault
	if event && s.EndNs != s.StartNs {
		return fmt.Errorf("%s span is not instantaneous [%d..%d]", s.Phase, s.StartNs, s.EndNs)
	}
	if s.Phase == ctrace.PhaseRole && s.Parent != 0 {
		return fmt.Errorf("role span has a parent %x", s.Parent)
	}
	if event && s.Parent == 0 && s.Annot == nil {
		return fmt.Errorf("%s root without annotation", s.Phase)
	}
	a := s.Annot
	if a == nil {
		return nil
	}
	if s.Parent != 0 || !(event || s.Phase == ctrace.PhaseQuery) {
		return fmt.Errorf("annotation on a %s span with parent %x", s.Phase, s.Parent)
	}
	if s.Phase != ctrace.PhaseQuery && (a.Level != "" || a.Served != 0 || a.StaleNs != 0 || a.Verdict != "") {
		return fmt.Errorf("query annotation on a %s root", s.Phase)
	}
	if s.Phase != ctrace.PhaseRole && (a.CAR != 0 || a.CS != 0 || a.CE != 0) {
		return fmt.Errorf("election coefficients on a %s root", s.Phase)
	}
	return nil
}
