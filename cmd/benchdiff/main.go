// Command benchdiff compares two `go test -bench` output files by
// benchmark name and renders a benchstat-style delta table, so the
// `make bench-wire` / `make bench-scale` targets work in environments
// without the benchstat tool; with -json it additionally exports the
// comparison as a machine-readable artefact (BENCH_wire.json,
// BENCH_scale.json).
//
// Usage:
//
//	benchdiff old.txt new.txt
//	benchdiff -json BENCH_scale.json -name scale old.txt new.txt
//
// Repeated runs of the same benchmark (go test -count=N) are averaged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's averaged measurements.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	runs        int
}

// comparison pairs one benchmark's old and new measurements.
type comparison struct {
	Name    string   `json:"name"`
	Old     *metrics `json:"old,omitempty"`
	New     *metrics `json:"new,omitempty"`
	Speedup float64  `json:"speedup,omitempty"`     // old ns / new ns
	AllocDx float64  `json:"alloc_ratio,omitempty"` // old allocs / new allocs
}

// artefact is the schema of the JSON export.
type artefact struct {
	Name       string       `json:"name"`
	Benchmarks []comparison `json:"benchmarks"`
}

func main() {
	jsonOut := flag.String("json", "", "also write the comparison as JSON to this file")
	name := flag.String("name", "benchdiff", "artefact name recorded in the JSON export")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-json out.json] [-name artefact] old.txt new.txt")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *jsonOut, *name); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(oldPath, newPath, jsonOut, name string) error {
	oldM, err := parseFile(oldPath)
	if err != nil {
		return err
	}
	newM, err := parseFile(newPath)
	if err != nil {
		return err
	}
	comps := merge(oldM, newM)
	if len(comps) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	printTable(comps)
	if jsonOut == "" {
		return nil
	}
	art := artefact{Name: name, Benchmarks: comps}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(buf, '\n'), 0o644)
}

// parseFile extracts benchmark lines of the form
//
//	BenchmarkName-8  1234  56.7 ns/op  8 B/op  1 allocs/op
//
// averaging repeated occurrences of the same name.
func parseFile(path string) (map[string]*metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*metrics{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix so runs on different machines line up.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = &metrics{}
			out[name] = m
		}
		m.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp += v
			case "B/op":
				m.BytesPerOp += v
			case "allocs/op":
				m.AllocsPerOp += v
			}
		}
	}
	for _, m := range out {
		m.NsPerOp /= float64(m.runs)
		m.BytesPerOp /= float64(m.runs)
		m.AllocsPerOp /= float64(m.runs)
	}
	return out, sc.Err()
}

// merge pairs benchmarks present in both files, sorted by name.
func merge(oldM, newM map[string]*metrics) []comparison {
	var names []string
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]comparison, 0, len(names))
	for _, name := range names {
		c := comparison{Name: name, Old: oldM[name], New: newM[name]}
		if c.New.NsPerOp > 0 {
			c.Speedup = c.Old.NsPerOp / c.New.NsPerOp
		}
		if c.New.AllocsPerOp > 0 {
			c.AllocDx = c.Old.AllocsPerOp / c.New.AllocsPerOp
		}
		out = append(out, c)
	}
	return out
}

func printTable(comps []comparison) {
	fmt.Printf("%-28s %14s %14s %9s %14s %14s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs/op", "new allocs/op")
	for _, c := range comps {
		delta := "~"
		if c.Old.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c.New.NsPerOp-c.Old.NsPerOp)/c.Old.NsPerOp)
		}
		fmt.Printf("%-28s %14.1f %14.1f %9s %14.1f %14.1f\n",
			c.Name, c.Old.NsPerOp, c.New.NsPerOp, delta, c.Old.AllocsPerOp, c.New.AllocsPerOp)
	}
}
