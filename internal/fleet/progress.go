package fleet

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// progress tracks fleet completion with atomic counters and, when given
// a writer, ticks a one-line status (counts, runs/sec, ETA) on it. The
// counters are the only mutable state the workers share with the ticker
// goroutine, and they are only ever read for display — never fed back
// into a simulation, which is what keeps parallel runs deterministic.
type progress struct {
	w     io.Writer
	total int
	start time.Time

	completed atomic.Int64 // runs finished this invocation (ok + failed)
	failed    atomic.Int64

	stopCh chan struct{}
	doneCh chan struct{}
}

func newProgress(w io.Writer, total int, start time.Time) *progress {
	return &progress{w: w, total: total, start: start}
}

// done records one finished run.
func (p *progress) done(failed bool) {
	p.completed.Add(1)
	if failed {
		p.failed.Add(1)
	}
}

// launch starts the ticker goroutine when a writer is configured.
func (p *progress) launch(every time.Duration) {
	if p.w == nil {
		return
	}
	if every <= 0 {
		every = 5 * time.Second
	}
	p.stopCh = make(chan struct{})
	p.doneCh = make(chan struct{})
	go func() {
		defer close(p.doneCh)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(p.w, p.line())
			case <-p.stopCh:
				return
			}
		}
	}()
}

// stop halts the ticker and prints one final line.
func (p *progress) stop() {
	if p.w == nil {
		return
	}
	close(p.stopCh)
	<-p.doneCh
	fmt.Fprintln(p.w, p.line())
}

// line renders the current status.
func (p *progress) line() string {
	completed := int(p.completed.Load())
	failed := int(p.failed.Load())
	elapsed := time.Since(p.start)
	s := fmt.Sprintf("fleet: %d/%d runs", completed, p.total)
	if failed > 0 {
		s += fmt.Sprintf(", %d FAILED", failed)
	}
	if completed > 0 && elapsed > 0 {
		rate := float64(completed) / elapsed.Seconds()
		s += fmt.Sprintf(", %.2f runs/s", rate)
		if remaining := p.total - completed; remaining > 0 && rate > 0 {
			eta := time.Duration(float64(remaining)/rate) * time.Second
			s += fmt.Sprintf(", eta %v", eta.Round(time.Second))
		}
	}
	return s + fmt.Sprintf(", elapsed %v", elapsed.Round(time.Second))
}
