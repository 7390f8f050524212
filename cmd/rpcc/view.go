package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

const viewSynopsis = `Renders a causal trace (span JSONL from -trace-out of run, scale, wire
or rpccd) as a deterministic text report: per-region span accounting,
the per-phase latency decomposition across all completed operations,
the top-k critical paths with per-segment self time, one line per flood
wave and one line per query root. Several files (one per daemon or
region) merge into one canonical trace first. The report is a pure
function of the files' contents.

  rpcc view -in trace.jsonl -topk 10 -paths=false
  rpcc view -in node0.jsonl,node1.jsonl,node2.jsonl`

func viewCmd(_ context.Context, args []string) error {
	fs := newFlagSet("view", viewSynopsis)
	var (
		in        = fs.String("in", "", "span JSONL file(s), comma-separated (required)")
		topk      = fs.Int("topk", 5, "critical paths to print in full")
		showPaths = fs.Bool("paths", true, "print the top-k critical paths")
	)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	sets, err := readSpanFiles(strings.Split(*in, ","))
	if err != nil {
		return err
	}
	spans := ctrace.Merge(sets...) // canonical order regardless of producer

	paths := ctrace.ExtractCriticalPaths(spans)
	fmt.Printf("trace: %d spans, %d roots\n", len(spans), len(paths))
	regionReport(spans)
	phaseReport(paths)
	if *showPaths {
		pathReport(ctrace.TopK(paths, *topk))
	}
	waveReport(spans)
	queryReport(spans)
	return nil
}

// readSpanFiles reads one span set per file.
func readSpanFiles(paths []string) ([][]ctrace.Span, error) {
	sets := make([][]ctrace.Span, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sets[i], err = ctrace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return sets, nil
}

// regionReport prints per-region span accounting: how much causal
// activity each shard / daemon contributed.
func regionReport(spans []ctrace.Span) {
	idx := map[int]int{}
	var regions []int
	type acc struct {
		spans int
		roots int
		self  int64
	}
	var accs []acc
	for _, s := range spans {
		i, ok := idx[s.Region]
		if !ok {
			i = len(accs)
			idx[s.Region] = i
			regions = append(regions, s.Region)
			accs = append(accs, acc{})
		}
		accs[i].spans++
		if s.Parent == 0 {
			accs[i].roots++
		}
		accs[i].self += s.Duration()
	}
	sort.Ints(regions)
	fmt.Printf("\nper-region activity:\n")
	fmt.Printf("  %-8s %8s %8s %14s\n", "region", "spans", "roots", "span-time")
	for _, r := range regions {
		a := accs[idx[r]]
		fmt.Printf("  %-8d %8d %8d %14s\n", r, a.spans, a.roots, dur(a.self))
	}
}

// phaseReport prints the latency decomposition: where, across every
// completed operation's critical path, the time actually went.
func phaseReport(paths []ctrace.CriticalPath) {
	phases, totals, counts := ctrace.PhaseTotals(paths)
	var grand int64
	for _, ph := range phases {
		grand += totals[ph]
	}
	fmt.Printf("\nper-phase latency (critical-path self time):\n")
	fmt.Printf("  %-12s %8s %14s %7s\n", "phase", "segs", "total", "share")
	for _, ph := range phases {
		share := 0.0
		if grand > 0 {
			share = 100 * float64(totals[ph]) / float64(grand)
		}
		fmt.Printf("  %-12s %8d %14s %6.1f%%\n", ph, counts[ph], dur(totals[ph]), share)
	}
	fmt.Printf("  %-12s %8s %14s\n", "(all)", "", dur(grand))
}

// pathReport prints the slowest operations segment by segment.
func pathReport(top []ctrace.CriticalPath) {
	fmt.Printf("\ntop %d critical paths:\n", len(top))
	for i, p := range top {
		fmt.Printf("  #%d  %s  total=%s  node=%d region=%d trace=%x\n",
			i+1, p.Root.Name, dur(p.TotalNs), p.Root.Node, p.Root.Region, p.Root.Trace)
		for _, seg := range p.Segments {
			fmt.Printf("      %-12s %-14s self=%-12s node=%d [%d..%d]\n",
				seg.Span.Phase, seg.Span.Name, dur(seg.SelfNs), seg.Span.Node,
				seg.Span.StartNs, seg.Span.EndNs)
		}
	}
}

// waveReport prints one line per flood wave. A wave is an invalidate or
// update root; its deliveries are the transit spans of its trace, which
// start when the flood was sent (so follow the root in canonical order)
// and end on arrival.
func waveReport(spans []ctrace.Span) {
	type wave struct {
		root        ctrace.Span
		deliveries  int
		first, last int64
	}
	var waves []wave
	idx := map[uint64]int{}
	for _, s := range spans {
		if s.Parent == 0 && (s.Phase == ctrace.PhaseInvalidate || s.Phase == ctrace.PhaseUpdate) {
			idx[s.ID] = len(waves)
			waves = append(waves, wave{root: s})
		} else if i, ok := idx[s.Trace]; ok && s.Phase == ctrace.PhaseTransit {
			w := &waves[i]
			if w.deliveries == 0 || s.EndNs < w.first {
				w.first = s.EndNs
			}
			w.last = max(w.last, s.EndNs)
			w.deliveries++
		}
	}
	fmt.Printf("\nflood waves (%d):\n", len(waves))
	fmt.Printf("  %-18s %-12s %6s %10s %14s %14s\n", "sent", "kind", "origin", "deliveries", "first-arrival", "last-arrival")
	for _, w := range waves {
		first, last := "-", "-"
		if w.deliveries > 0 {
			first, last = dur(w.first-w.root.StartNs), dur(w.last-w.root.StartNs)
		}
		fmt.Printf("  %-18s %-12s %6d %10d %14s %14s\n",
			dur(w.root.StartNs), w.root.Name, w.root.Node, w.deliveries, first, last)
	}
}

// queryReport prints the outcome tally and one line per query root. An
// answered root carries the judge's verdict; a failed root is named
// failed:<reason>; a root still named "query" was open at the horizon.
func queryReport(spans []ctrace.Span) {
	var roots []ctrace.Span
	var answered, failed int
	byVerdict := map[string]int{}
	for _, s := range spans {
		if s.Parent != 0 || s.Phase != ctrace.PhaseQuery {
			continue
		}
		roots = append(roots, s)
		if s.Annot != nil && s.Annot.Verdict != "" {
			answered++
			byVerdict[s.Annot.Verdict]++
		} else if strings.HasPrefix(s.Name, "failed:") {
			failed++
		}
	}
	fmt.Printf("\nqueries: %d issued, %d answered, %d failed, %d open\n",
		len(roots), answered, failed, len(roots)-answered-failed)
	verdicts := make([]string, 0, len(byVerdict))
	for v := range byVerdict {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Printf("  verdict %-22s %6d  %5.1f%% of answered\n", v, byVerdict[v], 100*float64(byVerdict[v])/float64(answered))
	}
	fmt.Printf("  %-18s %5s %5s %-5s %-22s %12s %7s %12s %s\n",
		"issued", "node", "item", "level", "outcome", "latency", "served", "stale", "verdict")
	for _, s := range roots {
		item, level, served, stale, verdict := "-", "-", "-", "-", "-"
		if a := s.Annot; a != nil {
			item, level = fmt.Sprint(a.Item), a.Level
			if a.Verdict != "" {
				served, verdict = fmt.Sprint(a.Served), a.Verdict
				stale = "unknown"
				if a.StaleNs >= 0 {
					stale = dur(a.StaleNs)
				}
			}
		}
		fmt.Printf("  %-18s %5d %5s %-5s %-22s %12s %7s %12s %s\n",
			dur(s.StartNs), s.Node, item, level, s.Name, dur(s.Duration()), served, stale, verdict)
	}
}

// dur renders nanoseconds via time.Duration's canonical formatting.
func dur(ns int64) string { return time.Duration(ns).String() }
