// Package fleet runs sets of simulation scenarios concurrently: a
// worker-pool orchestrator over experiment.Run with determinism,
// fault tolerance, and observability.
//
// # Determinism
//
// A fleet executes jobs, not goroutines-with-opinions: every Job carries
// a fully specified experiment.Config whose Seed is a pure function of
// the job's identity (sweep jobs share replica seeds by design — see
// experiment.SweepJobs). Workers never feed anything into a simulation
// — no worker IDs, no wall-clock, no completion order — so running a job
// list with Parallel=1 and Parallel=N yields byte-identical Results. Duplicate
// keys (e.g. fig7a and fig8a sharing one simulation matrix) are
// detected and each distinct scenario runs exactly once.
//
// # Isolation (the concurrency-safety contract)
//
// Everything below experiment.Run is strictly per-run state:
// sim.Kernel is a single-threaded event loop owned by one worker for
// the duration of one run; mobility fields, node chassis, cache stores,
// trace collectors and the stats ledgers are all constructed inside Run
// and never escape it. The only cross-worker state in a fleet is this
// package's own: atomic progress counters, the result map (guarded by a
// mutex), and the per-job record slots (each written by exactly one
// worker). TestFleetParallelRealRuns and sim's parallel kernel test
// enforce this under -race.
//
// # Fault tolerance
//
// A panicking simulation is converted by a per-run recover() into a
// failed Record carrying the panic value and stack; the rest of the
// fleet keeps running, and ReportFailures hands each failed record's
// key, error and stack to the user. A per-run wall-clock timeout
// abandons runaway simulations the same way. Cancelling the context
// (Ctrl-C) stops dispatching new jobs, lets in-flight runs finish being
// recorded, and returns the partial report with ctx's error.
//
// # Observability
//
// Progress (done/failed counts, runs/sec, ETA) ticks on an optional
// writer.
package fleet

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
)

// Job is one simulation to run: a stable key naming the scenario and the
// fully specified config. Key must fingerprint Config (use
// experiment.Config.Key or experiment.SweepJobs); two jobs sharing a key
// are the same scenario and run once.
type Job struct {
	Key    string
	Config experiment.Config
}

// Status classifies how a job ended.
type Status string

// Job outcomes. Cancelled jobs are those the context cut off before or
// during the run.
const (
	StatusOK        Status = "ok"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Record is one job's outcome — the unit of the report. Failed records
// carry the error (and the panic stack when the simulation panicked)
// instead of a Result.
type Record struct {
	Key      string
	Status   Status
	Strategy string
	Seed     int64
	Error    string
	Stack    string
	Result   *experiment.Result
}

// ReportFailures writes every failed record to w: its key and error,
// then the panic stack when the run panicked. It is how a failed run's
// stack reaches the user.
func ReportFailures(w io.Writer, recs []Record) {
	for _, rec := range recs {
		if rec.Status != StatusFailed {
			continue
		}
		fmt.Fprintf(w, "fleet: %s failed: %s\n", rec.Key, rec.Error)
		if rec.Stack != "" {
			fmt.Fprintln(w, strings.TrimRight(rec.Stack, "\n"))
		}
	}
}

// Options configures a fleet run. The zero value is usable: all cores,
// no timeout, no progress output.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout bounds one run's wall-clock time; 0 means none. A timed-out
	// simulation is abandoned (its goroutine is leaked — the kernel has
	// no preemption point) and recorded as failed.
	Timeout time.Duration
	// Progress, when non-nil, receives periodic one-line status updates
	// (counts, runs/sec, ETA).
	Progress io.Writer
	// ProgressEvery is the progress period; 0 means 5s.
	ProgressEvery time.Duration
	// Execute overrides the job executor. Nil means experiment.Run; tests
	// inject failures and panics through it.
	Execute func(experiment.Config) (experiment.Result, error)
}

// Report is the outcome of a fleet run.
type Report struct {
	// Records holds one entry per distinct job key, in first-appearance
	// job order — independent of completion order, so reports are
	// deterministic. Cancelled-before-start jobs appear with
	// StatusCancelled.
	Records []Record
	// Wall is the fleet's total wall-clock time.
	Wall time.Duration
	// Workers is the resolved worker count.
	Workers int
	// Executed counts runs that finished (ok or failed); Failed counts
	// failed records (including timeouts); Cancelled counts jobs the
	// context cut off.
	Executed, Failed, Cancelled int

	results map[string]experiment.Result
}

// Result returns the result recorded for a job key, if that job
// succeeded.
func (r Report) Result(key string) (experiment.Result, bool) {
	res, ok := r.results[key]
	return res, ok
}

// RunsPerSec is the executed-run throughput.
func (r Report) RunsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Executed) / r.Wall.Seconds()
}

// Run executes the job list and returns the report. It returns ctx's
// error (with the partial report) when cancelled, and otherwise reports
// per-job failures inside the Report rather than as an error — one
// panicking simulation must not abort a 5-hour sweep.
func Run(ctx context.Context, jobs []Job, opts Options) (Report, error) {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	execute := opts.Execute
	if execute == nil {
		execute = experiment.Run
	}

	// Deduplicate by key, preserving first-appearance order; reject jobs
	// that reuse a key for a different scenario (a keying bug upstream).
	order := make([]Job, 0, len(jobs))
	seen := make(map[string]experiment.Config, len(jobs))
	for _, j := range jobs {
		if prev, dup := seen[j.Key]; dup {
			// Config holds slices (workload hotspots) so it is not
			// comparable with ==; DeepEqual is fine off the hot path.
			if !reflect.DeepEqual(prev, j.Config) {
				return Report{}, fmt.Errorf("fleet: key %q maps to two different configs", j.Key)
			}
			continue
		}
		seen[j.Key] = j.Config
		order = append(order, j)
	}

	rep := Report{
		Records: make([]Record, len(order)),
		Workers: workers,
		results: make(map[string]experiment.Result, len(order)),
	}
	start := time.Now()
	var resMu sync.Mutex // guards rep.results (records are per-slot)

	prog := newProgress(opts.Progress, len(order), start)
	prog.launch(opts.ProgressEvery)
	defer prog.stop()

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				j := order[i]
				var rec Record
				if ctx.Err() != nil {
					rec = Record{Key: j.Key, Status: StatusCancelled,
						Strategy: string(j.Config.Strategy), Seed: j.Config.Seed,
						Error: ctx.Err().Error()}
				} else {
					rec = runOne(ctx, j, execute, opts.Timeout)
				}
				rep.Records[i] = rec
				switch rec.Status {
				case StatusOK:
					resMu.Lock()
					rep.results[j.Key] = *rec.Result
					resMu.Unlock()
					prog.done(false)
				case StatusFailed:
					prog.done(true)
				}
			}
		}()
	}

dispatch:
	for i := range order {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			// Drain: everything not yet dispatched is marked cancelled
			// here (no worker will ever touch those slots), and in-flight
			// runs finish being recorded before wg.Wait returns.
			for rest := i; rest < len(order); rest++ {
				j := order[rest]
				rep.Records[rest] = Record{Key: j.Key, Status: StatusCancelled,
					Strategy: string(j.Config.Strategy), Seed: j.Config.Seed,
					Error: ctx.Err().Error()}
			}
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()

	rep.Wall = time.Since(start)
	for _, rec := range rep.Records {
		switch rec.Status {
		case StatusOK:
			rep.Executed++
		case StatusFailed:
			rep.Executed++
			rep.Failed++
		case StatusCancelled:
			rep.Cancelled++
		}
	}
	return rep, ctx.Err()
}

// runOne executes one job with panic containment and an optional
// wall-clock timeout. The simulation runs on its own goroutine so a
// timeout can abandon it; the kernel offers no preemption point, so the
// abandoned goroutine runs to completion in the background and its
// result is discarded.
func runOne(ctx context.Context, j Job, execute func(experiment.Config) (experiment.Result, error), timeout time.Duration) Record {
	rec := Record{
		Key:      j.Key,
		Strategy: string(j.Config.Strategy),
		Seed:     j.Config.Seed,
	}
	type outcome struct {
		res   experiment.Result
		err   error
		stack string
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("panic: %v", p), stack: string(debug.Stack())}
			}
		}()
		res, err := execute(j.Config)
		done <- outcome{res: res, err: err}
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-done:
		if o.err != nil {
			rec.Status = StatusFailed
			rec.Error = o.err.Error()
			rec.Stack = o.stack
			return rec
		}
		rec.Status = StatusOK
		res := o.res
		rec.Result = &res
		return rec
	case <-timer:
		rec.Status = StatusFailed
		rec.Error = fmt.Sprintf("timeout after %v", timeout)
		return rec
	case <-ctx.Done():
		rec.Status = StatusCancelled
		rec.Error = ctx.Err().Error()
		return rec
	}
}
