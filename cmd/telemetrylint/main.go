// Command telemetrylint validates telemetry exports without any
// third-party scrape stack: a Prometheus text file (-prom) is checked
// for exposition-format discipline and histogram invariants, and a
// causal trace (-trace) for structure and vocabulary. It is the
// assertion half of the smoke targets — a seeded run produces the
// files, this command proves they parse.
//
//	telemetrylint -prom metrics.prom -require rpcc_delivery_latency_seconds,rpcc_queries_total
//	telemetrylint -trace trace.jsonl -skew 5ms
//
// -trace validates a causal trace (-trace-out of rpccsim, scale, chaos,
// rpccd, wiretest; tracecol output): the closed phase vocabulary, parent
// resolution, acyclicity, causal interval nesting within the -skew
// allowance, canonical span order, and where annotations may sit.
//
// Exit status is non-zero on the first violated invariant, with a
// message naming the metric/line at fault.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetrylint:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		promPath  = flag.String("prom", "", "Prometheus text file to validate")
		tracePath = flag.String("trace", "", "causal-trace span JSONL file to validate")
		skew      = flag.Duration("skew", 0, "clock-skew allowance for -trace parent/child nesting")
		require   = flag.String("require", "", "comma-separated metric families that must be present in -prom")
	)
	flag.Parse()
	if *promPath == "" && *tracePath == "" {
		return fmt.Errorf("nothing to do: pass -prom and/or -trace")
	}

	if *promPath != "" {
		families, samples, err := lintProm(*promPath)
		if err != nil {
			return err
		}
		for _, want := range strings.Split(*require, ",") {
			if want = strings.TrimSpace(want); want != "" && !families[want] {
				return fmt.Errorf("%s: required family %q is absent", *promPath, want)
			}
		}
		fmt.Printf("%s: ok (%d families, %d samples)\n", *promPath, len(families), samples)
	}
	if *tracePath != "" {
		spans, traces, roots, err := lintTrace(*tracePath, *skew)
		if err != nil {
			return err
		}
		fmt.Printf("%s: ok (%d spans, %d traces, %d roots)\n", *tracePath, spans, traces, roots)
	}
	return nil
}

// series is one histogram's accumulated state, keyed by its full label
// set minus the le label.
type series struct {
	buckets []bucket // in file order
	count   float64
	hasCnt  bool
	sum     float64
	hasSum  bool
}

type bucket struct {
	le  float64
	cum float64
}

// lintProm parses path as Prometheus text exposition format and checks:
// every sample line parses, every sample's family has a preceding TYPE,
// histogram buckets are cumulative and non-decreasing, every histogram
// has a +Inf bucket equal to its _count, and no two TYPE lines redefine
// a family. It returns the set of family names and the sample count.
func lintProm(path string) (map[string]bool, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	families := map[string]bool{}
	types := map[string]string{}
	hists := map[string]*series{}
	samples := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, 0, fmt.Errorf("%s:%d: malformed TYPE line", path, lineNo)
			}
			name, typ := fields[2], fields[3]
			if prev, ok := types[name]; ok && prev != typ {
				return nil, 0, fmt.Errorf("%s:%d: family %s redefined as %s (was %s)", path, lineNo, name, typ, prev)
			}
			types[name] = typ
			families[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		samples++
		// The fault plane's accounting families carry mandatory labels:
		// every drop is attributed to a cause, every fault event to a kind.
		if name == "rpcc_dropped_total" {
			if !hasLabel(labels, "cause") {
				return nil, 0, fmt.Errorf("%s:%d: rpcc_dropped_total sample without cause label", path, lineNo)
			}
			// Label discipline extends to the value set: the sim and wire
			// layers share one cause vocabulary, so an unknown cause is a
			// typo or an unregistered accounting path, not a new category.
			if c := labelValue(labels, "cause"); !validDropCauses[c] {
				return nil, 0, fmt.Errorf("%s:%d: rpcc_dropped_total cause %q not in the shared vocabulary", path, lineNo, c)
			}
		}
		if name == "rpcc_fault_events_total" && !hasLabel(labels, "kind") {
			return nil, 0, fmt.Errorf("%s:%d: rpcc_fault_events_total sample without kind label", path, lineNo)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
		if types[name] == "" && types[base] == "" {
			return nil, 0, fmt.Errorf("%s:%d: sample %s has no TYPE declaration", path, lineNo, name)
		}
		if types[base] != "histogram" {
			continue
		}
		le, rest := splitLE(labels)
		key := base + "{" + rest + "}"
		h := hists[key]
		if h == nil {
			h = &series{}
			hists[key] = h
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				return nil, 0, fmt.Errorf("%s:%d: histogram bucket without le label", path, lineNo)
			}
			leV := math.Inf(1)
			if le != "+Inf" {
				if leV, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, 0, fmt.Errorf("%s:%d: bad le %q: %v", path, lineNo, le, err)
				}
			}
			h.buckets = append(h.buckets, bucket{le: leV, cum: value})
		case strings.HasSuffix(name, "_count"):
			h.count, h.hasCnt = value, true
		case strings.HasSuffix(name, "_sum"):
			h.sum, h.hasSum = value, true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}

	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hists[k]
		if len(h.buckets) == 0 {
			return nil, 0, fmt.Errorf("%s: histogram %s has no buckets", path, k)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i].le <= h.buckets[i-1].le {
				return nil, 0, fmt.Errorf("%s: histogram %s: le bounds not increasing at index %d", path, k, i)
			}
			if h.buckets[i].cum < h.buckets[i-1].cum {
				return nil, 0, fmt.Errorf("%s: histogram %s: cumulative bucket counts decrease at le=%g", path, k, h.buckets[i].le)
			}
		}
		last := h.buckets[len(h.buckets)-1]
		if !math.IsInf(last.le, 1) {
			return nil, 0, fmt.Errorf("%s: histogram %s: missing +Inf bucket", path, k)
		}
		if !h.hasCnt {
			return nil, 0, fmt.Errorf("%s: histogram %s: missing _count", path, k)
		}
		if last.cum != h.count {
			return nil, 0, fmt.Errorf("%s: histogram %s: +Inf bucket %g != _count %g", path, k, last.cum, h.count)
		}
		if !h.hasSum {
			return nil, 0, fmt.Errorf("%s: histogram %s: missing _sum", path, k)
		}
	}
	return families, samples, nil
}

// parseSample splits `name{labels} value` (labels optional) into parts.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces")
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("want `name value`, got %d fields", len(fields))
		}
		name, rest = fields[0], fields[1]
	}
	v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %v", rest, perr)
	}
	return name, labels, v, nil
}

// validDropCauses is the shared drop-cause vocabulary: the sim fault
// plane's causes plus the wire transport's (stats.DropCause.String()).
var validDropCauses = map[string]bool{
	"loss": true, "partition": true, "disconnected": true,
	"no-route": true, "peer-down": true, "decode": true,
}

// labelValue returns the value of key="..." in the label string.
func labelValue(labels, key string) string {
	for _, part := range splitLabels(labels) {
		if v, ok := strings.CutPrefix(part, key+`="`); ok {
			return strings.TrimSuffix(v, `"`)
		}
	}
	return ""
}

// hasLabel reports whether the label string contains key="...".
func hasLabel(labels, key string) bool {
	for _, part := range splitLabels(labels) {
		if strings.HasPrefix(part, key+`="`) {
			return true
		}
	}
	return false
}

// splitLE removes the le="..." pair from a label string, returning its
// value and the remaining labels (which identify the histogram series).
func splitLE(labels string) (le, rest string) {
	var kept []string
	for _, part := range splitLabels(labels) {
		if v, ok := strings.CutPrefix(part, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		kept = append(kept, part)
	}
	return le, strings.Join(kept, ",")
}

// splitLabels splits k="v" pairs on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				if p := strings.TrimSpace(s[start:i]); p != "" {
					out = append(out, p)
				}
				start = i + 1
			}
		}
	}
	if p := strings.TrimSpace(s[start:]); p != "" {
		out = append(out, p)
	}
	return out
}
