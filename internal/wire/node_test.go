package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/manetlab/rpcc/internal/consistency"
	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
)

// TestNodeQueryFromManyGoroutines drives Node.Query from several
// goroutines at once (run it under -race): the pooled query records cross
// to the kernel goroutine and back to their free list, and every query
// arrives exactly once with its own item and level. Weak reads of the
// warmed copy are answered locally, so the peer can be a black hole.
func TestNodeQueryFromManyGoroutines(t *testing.T) {
	const callers, each = 4, 50
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var answered, wrong atomic.Int32
	nd, err := NewNode(NodeConfig{
		Self: 0, Nodes: 2, Peers: map[int]string{0: conn.LocalAddr().String(), 1: hole.LocalAddr().String()},
		Conn: conn, Seed: 1, Strategy: StrategyRPCCWC, Core: core.DefaultConfig(),
		Placement: []data.ItemID{1},
		OnAnswer: func(_ int, item data.ItemID, level consistency.Level, _ data.Copy, _ time.Time) {
			answered.Add(1)
			if item != 1 || level != consistency.LevelWeak {
				wrong.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !nd.Query(1, consistency.LevelWeak) {
					t.Error("query refused by a running node")
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every answer", func() bool { return answered.Load() >= callers*each })
	if err := nd.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := nd.Chassis().Issued(); got != callers*each {
		t.Errorf("issued %d queries, want %d", got, callers*each)
	}
	if got := answered.Load(); got != callers*each {
		t.Errorf("answered %d queries, want %d", got, callers*each)
	}
	if w := wrong.Load(); w != 0 {
		t.Errorf("%d answers for another item or level", w)
	}
	if nd.Query(1, consistency.LevelWeak) {
		t.Error("query accepted after Stop")
	}
}
