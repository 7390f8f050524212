package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// hostSpan is one host-time interval of the benchmark's own tracing: a
// call from the harness into a layer. Parent is the span that was open
// when this one started (0 for a root); spans of one run share Workload.
type hostSpan struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends. The harness is
// single-threaded around every call it spans, so the open spans form a
// stack. A nil recorder records nothing: timed runs pass nil.
type spanRec struct {
	workload string
	epoch    time.Time
	spans    []hostSpan
	open     []int // indexes into spans
}

func newSpanRec(workload string) *spanRec {
	return &spanRec{workload: workload, epoch: time.Now()}
}

// do runs fn inside a span named name and returns fn's wall time.
func (r *spanRec) do(name string, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, hostSpan{
		ID: idx + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNs: time.Since(r.epoch).Nanoseconds(),
	})
	r.open = append(r.open, idx)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[idx].EndNs = time.Since(r.epoch).Nanoseconds()
	return time.Duration(r.spans[idx].EndNs - r.spans[idx].StartNs)
}

// selfTimes returns each span's duration minus the part its direct
// children cover, keyed by span id. Children nest, so the self times of
// all spans sum to the root spans' durations.
func selfTimes(spans []hostSpan) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// write stores the spans as JSONL in dir/<workload>.spans.jsonl.
func (r *spanRec) write(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
