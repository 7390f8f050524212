package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/experiment"
)

// testJobs builds n distinct fast scenarios keyed and seeded like real
// sweeps: the seed is a pure function of the job, never of scheduling.
func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := experiment.DefaultConfig(experiment.StrategyRPCCWC, 1)
		cfg.SimTime = 2 * time.Minute
		cfg.NPeers = 10
		cfg.Seed = int64(i + 1)
		jobs[i] = Job{Key: cfg.Key(), Config: cfg}
	}
	return jobs
}

// fakeExecute returns a deterministic synthetic result without running a
// simulation; tests that exercise orchestration (not simulation) use it.
func fakeExecute(cfg experiment.Config) (experiment.Result, error) {
	return experiment.Result{
		Strategy: cfg.Strategy,
		Config:   cfg,
		TotalTx:  uint64(cfg.Seed) * 10,
		Issued:   uint64(cfg.Seed),
	}, nil
}

// TestFleetParallelMatchesSerialRealRuns is the determinism acceptance
// test: real simulations at Parallel=1 and Parallel=8 must produce
// byte-identical Results for every job. It doubles as the -race audit
// that nothing below experiment.Run is shared across workers.
func TestFleetParallelMatchesSerialRealRuns(t *testing.T) {
	jobs := testJobs(6)
	serial, err := Run(context.Background(), jobs, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), jobs, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Executed != len(jobs) || parallel.Executed != len(jobs) {
		t.Fatalf("executed %d/%d, want %d", serial.Executed, parallel.Executed, len(jobs))
	}
	for _, j := range jobs {
		a, okA := serial.Result(j.Key)
		b, okB := parallel.Result(j.Key)
		if !okA || !okB {
			t.Fatalf("job %s missing from a report (serial %v, parallel %v)", j.Key, okA, okB)
		}
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Fatalf("job %s: parallel result differs from serial\nserial:   %s\nparallel: %s", j.Key, ja, jb)
		}
	}
	// Record order is job order, independent of completion order.
	for i, j := range jobs {
		if serial.Records[i].Key != j.Key || parallel.Records[i].Key != j.Key {
			t.Fatalf("record %d out of job order", i)
		}
	}
}

// TestFleetPanicIsReportedNotFatal: a panicking simulation becomes a
// failed record carrying the stack, ReportFailures prints its key, error
// and stack, and every other job still completes.
func TestFleetPanicIsReportedNotFatal(t *testing.T) {
	jobs := testJobs(5)
	bad := jobs[2].Key
	rep, err := Run(context.Background(), jobs, Options{
		Parallel: 4,
		Execute: func(cfg experiment.Config) (experiment.Result, error) {
			if cfg.Key() == bad {
				panic("simulated kernel blow-up")
			}
			return fakeExecute(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if rep.Executed != 5 {
		t.Fatalf("executed = %d, want 5", rep.Executed)
	}
	var failedRec Record
	for _, rec := range rep.Records {
		if rec.Key == bad {
			failedRec = rec
		} else if rec.Status != StatusOK {
			t.Fatalf("innocent job %s ended %s", rec.Key, rec.Status)
		}
	}
	if failedRec.Status != StatusFailed {
		t.Fatalf("panicking job status = %s, want failed", failedRec.Status)
	}
	if !strings.Contains(failedRec.Error, "simulated kernel blow-up") {
		t.Fatalf("error %q lacks panic value", failedRec.Error)
	}
	if !strings.Contains(failedRec.Stack, "goroutine") {
		t.Fatalf("failed record lacks a stack: %q", failedRec.Stack)
	}

	// The report names the failed run and carries its stack; the
	// successful runs stay out of it.
	var out strings.Builder
	ReportFailures(&out, rep.Records)
	got := out.String()
	if n := strings.Count(got, " failed: "); n != 1 {
		t.Fatalf("failure report names %d runs, want 1:\n%s", n, got)
	}
	for _, want := range []string{bad, "simulated kernel blow-up", "goroutine", "runtime/debug.Stack"} {
		if !strings.Contains(got, want) {
			t.Fatalf("failure report lacks %q:\n%s", want, got)
		}
	}
	for _, rec := range rep.Records {
		if rec.Key != bad && strings.Contains(got, rec.Key) {
			t.Fatalf("failure report names successful job %s", rec.Key)
		}
	}
}

// TestFleetTimeout: a run exceeding Options.Timeout is recorded as
// failed and the sweep continues.
func TestFleetTimeout(t *testing.T) {
	jobs := testJobs(3)
	slow := jobs[0].Key
	rep, err := Run(context.Background(), jobs, Options{
		Parallel: 3,
		Timeout:  30 * time.Millisecond,
		Execute: func(cfg experiment.Config) (experiment.Result, error) {
			if cfg.Key() == slow {
				time.Sleep(500 * time.Millisecond)
			}
			return fakeExecute(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if rep.Records[0].Status != StatusFailed || !strings.Contains(rep.Records[0].Error, "timeout") {
		t.Fatalf("slow record = %+v, want timeout failure", rep.Records[0])
	}
	for _, rec := range rep.Records[1:] {
		if rec.Status != StatusOK {
			t.Fatalf("fast job %s ended %s", rec.Key, rec.Status)
		}
	}
}

// TestFleetCancellationDrains: cancelling mid-sweep stops dispatch and
// reports partial results, every job either executed or cancelled.
func TestFleetCancellationDrains(t *testing.T) {
	jobs := testJobs(8)
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	rep, err := Run(ctx, jobs, Options{
		Parallel: 1,
		Execute: func(cfg experiment.Config) (experiment.Result, error) {
			ran++
			if ran == 2 {
				cancel()
			}
			return fakeExecute(cfg)
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Cancelled == 0 {
		t.Fatal("no jobs reported cancelled")
	}
	if rep.Executed+rep.Cancelled != len(jobs) {
		t.Fatalf("executed %d + cancelled %d != %d jobs", rep.Executed, rep.Cancelled, len(jobs))
	}
	var out strings.Builder
	ReportFailures(&out, rep.Records)
	if out.Len() != 0 {
		t.Fatalf("cancelled jobs reported as failed:\n%s", out.String())
	}
}

// TestFleetDeduplicatesSharedKeys: jobs sharing a key (fig7a/fig8a twin
// sweeps) run once, and conflicting configs under one key are rejected.
func TestFleetDeduplicatesSharedKeys(t *testing.T) {
	jobs := testJobs(2)
	jobs = append(jobs, jobs[0]) // duplicate scenario
	var calls atomic.Int64
	rep, err := Run(context.Background(), jobs, Options{
		Parallel: 2,
		Execute: func(cfg experiment.Config) (experiment.Result, error) {
			calls.Add(1)
			return fakeExecute(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || rep.Executed != 2 {
		t.Fatalf("calls=%d executed=%d, want 2 each", calls.Load(), rep.Executed)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(rep.Records))
	}

	conflicting := testJobs(2)
	conflicting[1].Key = conflicting[0].Key // same key, different config
	if _, err := Run(context.Background(), conflicting, Options{Execute: fakeExecute}); err == nil {
		t.Fatal("conflicting configs under one key must be rejected")
	}
}

// TestFleetProgressTicker: the progress line lands on the writer with
// the final counts.
func TestFleetProgressTicker(t *testing.T) {
	var buf strings.Builder
	jobs := testJobs(3)
	_, err := Run(context.Background(), jobs, Options{
		Parallel:      2,
		Progress:      &buf,
		ProgressEvery: time.Millisecond,
		Execute: func(cfg experiment.Config) (experiment.Result, error) {
			time.Sleep(5 * time.Millisecond)
			return fakeExecute(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fleet: 3/3 runs") {
		t.Fatalf("progress output lacks final line: %q", out)
	}
}
