package rpcc

import (
	"testing"
	"time"
)

// TestSimulationPinned pins every number a scripted run exposes: half an
// hour of DefaultSimOptions with churn on, warm placements, a commit or a
// query every 10 s at rotating consistency levels, and one forced
// disconnect/reconnect. The expected values were recorded from the run;
// any change to how a Simulation is assembled or scheduled that moves
// them is a behaviour change, not a refactor.
func TestSimulationPinned(t *testing.T) {
	opts := DefaultSimOptions(5)
	opts.EnableChurn = true
	s, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for host := 0; host < opts.Peers; host++ {
		for j := 1; j <= 3; j++ {
			if err := s.Warm(host, (host+j)%opts.Peers); err != nil {
				t.Fatal(err)
			}
		}
	}
	levels := []Level{LevelStrong, LevelDelta, LevelWeak}
	for i := 0; i < 180; i++ {
		host := i * 7 % opts.Peers
		item, level := (host+1+i%3)%opts.Peers, levels[i%3]
		update := i%4 == 0
		if err := s.At(time.Duration(i)*10*time.Second, func() {
			if update {
				_ = s.Update(host)
			} else {
				_ = s.Query(host, item, level)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.At(8*time.Minute, func() { _ = s.Disconnect(4) }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(14*time.Minute, func() { _ = s.Reconnect(4) }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(30 * time.Minute); err != nil {
		t.Fatal(err)
	}

	want := Metrics{
		Issued: 135, Answered: 129, Failed: 6,
		MeanLatency: 2934978, MaxLatency: 166549601,
		TotalTransmissions: 4971, TotalBytes: 514400,
		MeanStaleness: 9767441860, RelayRegistrations: 60,
	}
	if got := s.Metrics(); got != want {
		t.Errorf("Metrics() = %#v\nwant %#v", got, want)
	}
	if got, want := s.RelayCount(), 60; got != want {
		t.Errorf("RelayCount() = %d, want %d", got, want)
	}
	for _, c := range []struct {
		host, item int
		version    uint64
		cached     bool
		role       string
	}{
		{0, 0, 9, true, "none"},
		{3, 4, 9, true, "relay"},
		{4, 5, 0, true, "relay"},
		{7, 9, 0, true, "relay"},
		{12, 13, 0, true, "relay"},
		{19, 0, 9, true, "relay"},
		{10, 12, 8, true, "relay"},
		{16, 1, 0, false, "none"},
	} {
		v, ok := s.Version(c.host, c.item)
		role := s.Role(c.host, c.item)
		if v != c.version || ok != c.cached || role != c.role {
			t.Errorf("host %d item %d: version %d cached %v role %q; want %d %v %q",
				c.host, c.item, v, ok, role, c.version, c.cached, c.role)
		}
	}
}
