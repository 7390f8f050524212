package cluster

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/oracle"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/wire"
)

// member is one cluster slot across daemon incarnations: the live node
// (nil while down), counters accumulated from dead incarnations, and the
// durable write counter the next incarnation resumes from.
type member struct {
	mu sync.Mutex
	nd *wire.Node

	// Accumulated from stopped incarnations; the live node's own
	// counters are added at collection time.
	issued, answered, failed uint64
	auditViolations          uint64
	decodeErrs, readErrs     uint64
	traffic                  *stats.Traffic
	lat                      *stats.Latency
	summaries                []string
	restarts                 int

	// lastVersion is the highest version this slot's owner item ever
	// committed, updated by the OnCommit wrapper on the daemon's kernel
	// goroutine and read by the churn controller.
	lastVersion atomic.Uint64
}

// absorb folds a stopped incarnation's counters into the accumulators.
// Callers hold mu and have already stopped the node.
func (m *member) absorb() {
	if m.nd == nil {
		return
	}
	ch := m.nd.Chassis()
	m.issued += ch.Issued()
	m.answered += ch.Answered()
	m.failed += ch.Failed()
	m.auditViolations += ch.AuditViolations()
	m.decodeErrs += m.nd.Transport().DecodeErrors()
	m.readErrs += m.nd.Transport().ReadErrors()
	m.traffic.Merge(m.nd.Traffic())
	m.lat = m.nd.Latency()
	m.summaries = append(m.summaries, m.nd.Summary())
	m.nd = nil
}

// churn executes the script's crash schedule against the members:
// sequential cold crash → down window → socket rebind → cold restart
// with the durable write counter resumed. It returns the observed down
// windows and restart completions in recorder-epoch time, for the
// fault-aware judge. Crashes whose restart would land after stop closes
// leave the member down; the open window then ends at controller exit.
type churn struct {
	cfg     Config
	members []*member
	peers   map[int]string
	epoch   time.Time
	started time.Time
	rebuild func(i int, conn *net.UDPConn, resume data.Version, offset time.Duration, gen int) (*wire.Node, error)

	mu       sync.Mutex
	windows  []oracle.LiveWindow
	restarts []oracle.LiveRestart
	errs     []error
}

// sleepUntil waits for the target instant unless stop closes first.
func sleepUntil(target time.Time, stop <-chan struct{}) bool {
	d := time.Until(target)
	if d <= 0 {
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-stop:
		return false
	}
}

// rebind re-listens on a crashed daemon's advertised address. The old
// socket's close and the new bind race inside the kernel, so retry
// briefly instead of failing the restart on the first EADDRINUSE.
func rebind(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		conn, err := net.ListenUDP("udp", ua)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster: rebind %s: %w", addr, lastErr)
}

// run processes the crash schedule; call in its own goroutine and join
// it (via the WaitGroup the caller owns) before collecting members.
func (c *churn) run(stop <-chan struct{}) {
	crashes := append([]faults.Crash(nil), c.cfg.Chaos.Crashes...)
	sort.Slice(crashes, func(a, b int) bool { return crashes[a].At < crashes[b].At })
	for _, cr := range crashes {
		if !sleepUntil(c.started.Add(cr.At.D()), stop) {
			return
		}
		m := c.members[cr.Node]
		m.mu.Lock()
		if m.nd == nil {
			m.mu.Unlock()
			continue // already down (schedule crashed it twice)
		}
		// Cold crash: no drain courtesy — in-flight work dies with the
		// process, exactly what a real daemon crash looks like.
		if err := m.nd.Stop(0); err != nil {
			c.fail(fmt.Errorf("cluster: crash node %d: %w", cr.Node, err))
		}
		m.absorb()
		m.mu.Unlock()
		downFrom := time.Since(c.epoch)

		if cr.RestartAfter <= 0 {
			c.addWindow(oracle.LiveWindow{Start: downFrom, End: 1<<62 - 1, Node: cr.Node})
			continue
		}
		if !sleepUntil(c.started.Add(cr.At.D()+cr.RestartAfter.D()), stop) {
			c.addWindow(oracle.LiveWindow{Start: downFrom, End: time.Since(c.epoch), Node: cr.Node})
			return
		}
		conn, err := rebind(c.peers[cr.Node])
		if err != nil {
			c.fail(err)
			c.addWindow(oracle.LiveWindow{Start: downFrom, End: time.Since(c.epoch), Node: cr.Node})
			continue
		}
		m.mu.Lock()
		m.restarts++
		nd, err := c.rebuild(cr.Node, conn,
			data.Version(m.lastVersion.Load()), time.Since(c.started), m.restarts)
		if err == nil {
			err = nd.Start()
		}
		if err != nil {
			m.mu.Unlock()
			conn.Close()
			c.fail(fmt.Errorf("cluster: restart node %d: %w", cr.Node, err))
			c.addWindow(oracle.LiveWindow{Start: downFrom, End: time.Since(c.epoch), Node: cr.Node})
			continue
		}
		m.nd = nd
		m.mu.Unlock()
		// The restart completion stamps both the window end and the new
		// knowledge epoch: before it the daemon provably knew nothing.
		at := time.Since(c.epoch)
		c.addWindow(oracle.LiveWindow{Start: downFrom, End: at, Node: cr.Node})
		c.addRestart(oracle.LiveRestart{Node: cr.Node, At: at})
	}
}

func (c *churn) addWindow(w oracle.LiveWindow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windows = append(c.windows, w)
}

func (c *churn) addRestart(r oracle.LiveRestart) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.restarts = append(c.restarts, r)
}

func (c *churn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// results returns the recorded adversity; call after joining run.
func (c *churn) results() (windows []oracle.LiveWindow, restarts []oracle.LiveRestart, errs []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows, c.restarts, c.errs
}
