package wire

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// deadline is the executive's wake-up source: a CLOCK_MONOTONIC timerfd.
// Go's Linux netpoller rounds every timer wait up to whole milliseconds,
// so a time.Timer wakes the loop about 0.6 ms after the event it waits
// for; the kernel fires a timerfd at its nanosecond expiry (DESIGN §12).
// The fd is non-blocking and wrapped in an os.File, so the reader
// goroutine parks on the runtime poller rather than on a thread.
type deadline struct {
	fd   int
	f    *os.File
	spec itimerspec    // reused by every arm, so arming allocates nothing
	done chan struct{} // closed when the reader goroutine has exited
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Since reads

// newDeadline returns a disarmed deadline whose reader goroutine calls
// wake once per expiry until close.
func newDeadline(wake func()) (*deadline, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	d := &deadline{fd: int(fd), f: os.NewFile(fd, "timerfd"), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		var n [8]byte // the expiry count; only the wake-up matters
		for {
			// The one error is the file closing under close.
			if _, err := d.f.Read(n[:]); err != nil {
				return
			}
			wake()
		}
	}()
	return d, nil
}

// arm sets the deadline to expire wait from now, replacing any earlier
// setting. A wait already past fires at once.
func (d *deadline) arm(wait time.Duration) {
	if wait <= 0 {
		wait = 1 // a zero expiry would disarm
	}
	d.spec.value = syscall.NsecToTimespec(int64(wait))
	d.settime()
}

// disarm cancels a pending expiry.
func (d *deadline) disarm() {
	d.spec.value = syscall.Timespec{}
	d.settime()
}

func (d *deadline) settime() {
	// The fd is open until close and the spec normalised, so the call
	// cannot fail.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(d.fd), 0,
		uintptr(unsafe.Pointer(&d.spec)), 0, 0, 0)
}

// close releases the timerfd and returns once the reader has exited.
func (d *deadline) close() {
	d.f.Close()
	<-d.done
}
