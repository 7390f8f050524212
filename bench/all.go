package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// summary is one end-to-end metric over the repeats of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type workloadResult struct {
	Name        string                `json:"name"`
	Fingerprint string                `json:"sim_fingerprint,omitempty"`
	EndToEnd    map[string]summary    `json:"end_to_end"`
	PerLayer    map[string]layerValue `json:"per_layer"`
}

// resultFile is what the all-workloads run writes and -compare reads.
type resultFile struct {
	Host struct {
		NProc     int    `json:"nproc"`
		GoVersion string `json:"go_version"`
		Commit    string `json:"commit"`
	} `json:"host"`
	Seed    int64   `json:"seed"`
	Repeats int     `json:"repeats"`
	Seconds float64 `json:"seconds"`
	// Claim names the (end-to-end metric, workload) pair a change claims
	// to improve; the change that defines the benchmark claims nothing.
	Claim     *string          `json:"claim"`
	Workloads []workloadResult `json:"workloads"`
}

// childResult is the contract's result object as a child printed it.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	fingerprint string
}

// runChild re-executes this binary for one (workload, repeat), so peak
// RSS is the workload's own and no heap survives from one run to the
// next. It waits for the child to end.
func runChild(exe string, stderr io.Writer, workload string, seed int64, seconds float64, trace int) (childResult, error) {
	var res childResult
	var stdout bytes.Buffer
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 3 && f[0] == "sim_fingerprint" {
			res.fingerprint = f[2]
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s (trace %d): last line is not a result object: %w", workload, trace, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s (trace %d): run reported incorrect outputs", workload, trace)
	}
	return res, nil
}

// runAll measures every workload: repeats timed children and one traced
// child each. Any failed check aborts before anything is written.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, repeats int, out string) error {
	if repeats < 3 {
		return fmt.Errorf("-repeats %d: a median needs at least 3", repeats)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var file resultFile
	file.Host.NProc = runtime.NumCPU()
	file.Host.GoVersion = runtime.Version()
	file.Host.Commit = "unknown"
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		file.Host.Commit = strings.TrimSpace(string(rev))
	}
	file.Seed, file.Repeats, file.Seconds = seed, repeats, seconds

	for _, w := range workloadSpecs {
		wr := workloadResult{Name: w.Name, EndToEnd: map[string]summary{}, PerLayer: map[string]layerValue{}}
		vals := map[string][]float64{}
		for r := 0; r < repeats; r++ {
			fmt.Fprintf(stderr, "bench: %s repeat %d/%d\n", w.Name, r+1, repeats)
			res, err := runChild(exe, stderr, w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if r > 0 && res.fingerprint != wr.Fingerprint {
				return fmt.Errorf("%s: sim_fingerprint %s in repeat %d, %s before", w.Name, res.fingerprint, r+1, wr.Fingerprint)
			}
			wr.Fingerprint = res.fingerprint
			for _, m := range endToEnd {
				vals[m.Name] = append(vals[m.Name], res.Metrics[m.Name].Value)
			}
		}
		for _, m := range endToEnd {
			q1, q3 := quartiles(vals[m.Name])
			s := summary{Unit: m.Unit, Median: median(vals[m.Name]), Q1: q1, Q3: q3, Values: vals[m.Name]}
			wr.EndToEnd[m.Name] = s
			fmt.Fprintf(stdout, "%-15s %-24s %14.6g  [%.6g .. %.6g] %s\n", w.Name, m.Name, s.Median, s.Q1, s.Q3, m.Unit)
		}
		if wr.Fingerprint != "" {
			fmt.Fprintf(stdout, "%-15s %-24s %14s\n", w.Name, "sim_fingerprint", wr.Fingerprint)
		}
		fmt.Fprintf(stderr, "bench: %s layer pass\n", w.Name)
		res, err := runChild(exe, stderr, w.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = layerValue{m.Unit, res.Metrics[m.Name].Value}
			fmt.Fprintf(stdout, "%-15s %-36s %14.6g %s\n", w.Name, m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
		file.Workloads = append(file.Workloads, wr)
	}

	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: wrote %s\n", out)
	return nil
}
