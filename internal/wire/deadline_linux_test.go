package wire

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/sim"
)

// TestClockStartReportsMissingDeadline: with no file descriptor to spare
// for a timerfd, Start returns the error (again on a second call), the
// clock never runs, Inject refuses, and Stop returns at once.
func TestClockStartReportsMissingDeadline(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	none := lim
	none.Cur = 0
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &none); err != nil {
		t.Fatal(err)
	}
	c := NewClock(sim.NewKernel())
	err := c.Start()
	if restoreErr := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); restoreErr != nil {
		t.Fatal(restoreErr)
	}
	if err == nil {
		c.Stop(time.Second)
		t.Fatal("Start succeeded with no file descriptor to spare")
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Start: %v, want EMFILE", err)
	}
	if again := c.Start(); again != err {
		t.Fatalf("second Start: %v, want the first call's %v", again, err)
	}
	if c.Inject(func(*sim.Kernel) {}) {
		t.Fatal("inject accepted by a clock that never ran")
	}
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
}
