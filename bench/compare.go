package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResults(path string) (resultFile, error) {
	var f resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// worseBy is how far b's median is on the wrong side of a's, as a share
// of a's median (negative when b is better).
func worseBy(m metricSpec, a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// verdict compares one (workload, end-to-end metric) pair of summaries.
// A side whose inter-quartile range is wider than the bound cannot
// resolve a difference of that size, unless the two sides' runs do not
// overlap at all.
func verdict(m metricSpec, a, b summary) string {
	d := worseBy(m, a.Median, b.Median)
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }
	if spread(a) > m.Bound || spread(b) > m.Bound {
		allWorse, allBetter := true, true
		for _, x := range a.Values {
			for _, y := range b.Values {
				w := worseBy(m, x, y)
				allWorse = allWorse && w > 0
				allBetter = allBetter && w < 0
			}
		}
		switch {
		case allWorse && d > m.Bound:
			return "worse"
		case allBetter && d < -m.Bound:
			return "better"
		}
		return "unresolved"
	}
	switch {
	case d > m.Bound:
		return "worse"
	case d < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, per (workload, end-to-end metric), both medians
// with quartiles, the change, the bound and a verdict, and reports
// whether any pair is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	other := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		other[wl.Name] = wl
	}
	anyWorse := false
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "%-15s sim_fingerprint differs: %s vs %s\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(m, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-24s %12.6g [%.6g .. %.6g] -> %12.6g [%.6g .. %.6g] %-5s %+7.2f%% (bound %.0f%%) %s\n",
				wa.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.Unit,
				100*(sb.Median-sa.Median)/math.Abs(sa.Median), 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}
