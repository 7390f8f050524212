//go:build !linux

package wire

import "time"

// deadline is the executive's wake-up source over a runtime timer. Off
// Linux the runtime's poller waits with sub-millisecond timeouts (kqueue
// takes nanoseconds), so the timer itself fires on time (DESIGN §12).
type deadline struct{ t *time.Timer }

// newDeadline returns a disarmed deadline that calls wake once per expiry.
func newDeadline(wake func()) (*deadline, error) {
	t := time.AfterFunc(time.Hour, wake)
	t.Stop()
	return &deadline{t}, nil
}

// arm sets the deadline to expire wait from now, replacing any earlier
// setting.
func (d *deadline) arm(wait time.Duration) { d.t.Reset(wait) }

// disarm cancels a pending expiry.
func (d *deadline) disarm() { d.t.Stop() }

// close cancels a pending expiry for good.
func (d *deadline) close() { d.t.Stop() }
