// Command bench is the repository's benchmark: useful work end to end,
// cost layer by layer, for five workloads. See README.md.
//
// One workload, one process (what BENCHMARK.json's command runs):
//
//	go run -C bench . -workload paper50-read -seed 1 -seconds 15 -trace 0
//
// prints every metric by name with its unit and, as the last line, the
// result object of the benchmark contract: the end-to-end metrics with
// -trace 0, the per-layer metrics (one untraced and one traced pass under
// the benchmark's own spans, plus the layer probes) with -trace 1.
//
// Every workload, each repeat in a fresh child process:
//
//	go run -C bench . [-seed N] [-repeats R] [-seconds S] [-out file]
//	go run -C bench . -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// outDir receives span files and result files; .gitignore names it.
const outDir = "out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, each repeat in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; the only thing that varies the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured window of one run")
	trace := fs.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced layer pass, per-layer metrics")
	repeats := fs.Int("repeats", 5, "timed child runs per workload (at least 3)")
	out := fs.String("out", outDir+"/results.json", "where the all-workloads run writes its results")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *spec:
		_, err = stdout.Write(benchmarkSpec())
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case *workload != "":
		var rep *report
		layers := *trace == 1
		if rep, err = runWorkload(*workload, fullSize, *seed, *seconds, layers, outDir); err == nil {
			if !printReport(stdout, stderr, *workload, rep, layers) {
				return 1
			}
		}
	default:
		err = runAll(stdout, stderr, *seed, *seconds, *repeats, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process at the given size.
func runWorkload(name string, sz sizing, seed int64, seconds float64, layers bool, dir string) (*report, error) {
	if name == wireName {
		if layers {
			return wireLayers(seed, sz, dir)
		}
		return wireTimed(seed, seconds, sz)
	}
	for _, w := range simWorkloads(sz) {
		if w.name == name {
			if layers {
				return w.layers(seed, sz, dir)
			}
			return w.timed(seed, seconds, sz)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// printReport prints every metric by name with its unit, the simulated
// fingerprint, and the contract's result object as the last line. It
// reports whether the run was correct.
func printReport(stdout, stderr io.Writer, workload string, rep *report, layers bool) bool {
	specs, required := endToEnd, true
	if layers {
		specs, required = perLayer, false
	}
	line := rep.contractLine(specs, required) // may add breaches
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-15s %-36s %16.6g %s\n", workload, s.Name, rep.Values[s.Name], s.Unit)
	}
	if rep.Fingerprint != "" {
		fmt.Fprintf(stdout, "sim_fingerprint %s %s\n", workload, rep.Fingerprint)
	}
	for _, b := range rep.Breaches {
		fmt.Fprintf(stderr, "bench: %s: INCORRECT: %s\n", workload, b)
	}
	fmt.Fprintln(stdout, line)
	return len(rep.Breaches) == 0
}
