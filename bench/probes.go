package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"time"

	rpcc "github.com/manetlab/rpcc"
	"github.com/manetlab/rpcc/internal/cache"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/experiment"
	"github.com/manetlab/rpcc/internal/geo"
	"github.com/manetlab/rpcc/internal/mobility"
	"github.com/manetlab/rpcc/internal/netsim"
	"github.com/manetlab/rpcc/internal/protocol"
	"github.com/manetlab/rpcc/internal/radio"
	"github.com/manetlab/rpcc/internal/sim"
	"github.com/manetlab/rpcc/internal/stats"
	"github.com/manetlab/rpcc/internal/wire"
)

// cost is what a fixed-iteration loop around a layer's exported calls
// spent, per operation.
type cost struct{ ns, allocs, bytes float64 }

// measure times fn, which performs ops operations.
func measure(ops int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	return cost{
		ns:     float64(wall.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}

// runProbes runs every layer probe under its own span. A probe that
// cannot run is a breach, not a silent zero.
func runProbes(rep *report, sz sizing, seed int64, rec *spanRec) {
	probes := []struct {
		name string
		fn   func(v values, n int, seed int64) error
	}{
		{"sim", probeSim}, {"mobility", probeMobility}, {"radio", probeRadio},
		{"netsim", probeNetsim}, {"core", probeCore}, {"cache", probeCache},
		{"protocol", probeProtocol}, {"wire", probeWire}, {"telemetry", probeTelemetry},
	}
	for _, p := range probes {
		rec.do("probe:"+p.name, func() {
			if err := p.fn(rep.Values, sz.probeIters, seed); err != nil {
				rep.breach("probe %s: %v", p.name, err)
			}
		})
	}
}

func probeSim(v values, n int, _ int64) error {
	// Self-rescheduling timers: the kernel's push/pop/dispatch cycle.
	events := 10 * n
	k := sim.NewKernel()
	fired := 0
	var tick sim.Handler
	tick = func(kk *sim.Kernel) {
		if fired++; fired < events {
			kk.After(time.Millisecond, "tick", tick)
		}
	}
	c := measure(events, func() {
		k.After(time.Millisecond, "tick", tick)
		k.Run()
	})
	v["sim.event_ns"], v["sim.event_allocs"] = c.ns, c.allocs

	// Stream creation: what every node pays once at set-up.
	streams := n / 20
	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("probe.%d", i)
	}
	k = sim.NewKernel(sim.WithSeed(1))
	c = measure(streams, func() {
		for _, name := range names {
			k.Stream(name)
		}
	})
	v["sim.stream_new_ns"], v["sim.stream_new_bytes"] = c.ns, c.bytes

	// Lockstep barriers over empty windows.
	lookahead := time.Millisecond
	sk, err := sim.NewShardedKernel(4, lookahead, time.Duration(n/10)*lookahead, 1)
	if err != nil {
		return err
	}
	wall := measure(1, func() { sk.Run() }).ns
	if b := sk.Barriers(); b > 0 {
		v["sim.barrier_ns"] = wall / float64(b)
	}
	return nil
}

// scaleSide is the terrain side holding n nodes at Table 1 density.
func scaleSide(n int) float64 { return 1500 * math.Sqrt(float64(n)/50) }

func probeMobility(v values, n int, _ int64) error {
	nodes := n / 10
	terrain, err := geo.NewTerrain(scaleSide(nodes), scaleSide(nodes))
	if err != nil {
		return err
	}
	// RNG construction is the sim layer's cost (sim.stream_new_ns).
	rngs := make([]*rand.Rand, nodes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 1))
	}
	cfg := mobility.Config{Terrain: terrain, MinSpeed: 0.5, MaxSpeed: 5, Pause: time.Minute, SubnetCell: 1000}
	var field *mobility.Field
	c := measure(nodes, func() {
		field, err = mobility.NewField(cfg, nodes, func(i int) *rand.Rand { return rngs[i] })
	})
	if err != nil {
		return err
	}
	v["mobility.field_new_ns"] = c.ns
	const samples = 20
	var dst []geo.Point
	c = measure(samples*nodes, func() {
		for s := 1; s <= samples; s++ {
			dst = field.PositionsAt(time.Duration(s)*10*time.Second, dst)
		}
	})
	v["mobility.position_ns"] = c.ns
	return nil
}

func uniformPoints(n int, side float64) ([]geo.Point, error) {
	terrain, err := geo.NewTerrain(side, side)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = terrain.RandomPoint(r)
	}
	return pts, nil
}

func probeRadio(v values, n int, _ int64) error {
	nodes := n / 40
	pts, err := uniformPoints(nodes, scaleSide(nodes))
	if err != nil {
		return err
	}
	builder := radio.NewGraphBuilder()
	const builds = 20
	var g *radio.Graph
	c := measure(builds*nodes, func() {
		for i := 0; i < builds && err == nil; i++ {
			g, err = builder.Build(pts, nil, 250, uint64(i))
		}
	})
	if err != nil {
		return err
	}
	v["radio.build_ns"], v["radio.build_allocs"] = c.ns, c.allocs

	dests := nodes / 10
	if dests < 1 {
		dests = 1
	}
	v["radio.route_table_ns"] = measure(dests, func() {
		for d := 0; d < dests; d++ {
			g.NextHop(nodes-1-d, d)
		}
	}).ns
	v["radio.nexthop_ns"] = measure(n, func() {
		for i := 0; i < n; i++ {
			g.NextHop(nodes-1-i%dests, i%dests)
		}
	}).ns
	return nil
}

// staticField pins a layout, as bench_test.go does for the message-level
// hot-path benchmarks.
type staticField []geo.Point

func (f staticField) Len() int { return len(f) }

func (f staticField) PositionsAt(_ time.Duration, dst []geo.Point) []geo.Point {
	return append(dst[:0], f...)
}

func probeNetsim(v values, n int, _ int64) error {
	pts, err := uniformPoints(50, 1500)
	if err != nil {
		return err
	}
	k := sim.NewKernel(sim.WithSeed(1))
	net, err := netsim.New(netsim.DefaultConfig(), k, staticField(pts), nil, nil, stats.NewTraffic())
	if err != nil {
		return err
	}
	msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Version: 1}
	c := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			msg.Origin = i % 50
			err = net.Unicast(i%50, (i+25)%50, msg)
			k.Run()
		}
	})
	if err != nil {
		return err
	}
	v["netsim.unicast_ns"], v["netsim.unicast_allocs"] = c.ns, c.allocs

	floods := n / 10
	msg.Kind = protocol.KindInvalidation
	c = measure(floods, func() {
		for i := 0; i < floods && err == nil; i++ {
			msg.Origin = i % 50
			err = net.Flood(i%50, 8, msg)
			k.Run()
		}
	})
	if err != nil {
		return err
	}
	v["netsim.flood_ns"], v["netsim.flood_allocs"] = c.ns, c.allocs
	return nil
}

func probeCore(v values, n int, seed int64) error {
	ops := n / 10
	opts := rpcc.DefaultSimOptions(seed)
	// Static: a node crosses a millimetre a second and never arrives.
	opts.MinSpeed, opts.MaxSpeed, opts.Pause = 0.001, 0.001, 0
	newSim := func() (*rpcc.Simulation, error) {
		s, err := rpcc.NewSimulation(opts)
		if err != nil {
			return nil, err
		}
		for host := 0; host < opts.Peers; host++ {
			for j := 1; j <= 5; j++ {
				if err := s.Warm(host, (host+j)%opts.Peers); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	}
	levels := []struct {
		name  string
		level rpcc.Level
	}{{"sc", rpcc.LevelStrong}, {"dc", rpcc.LevelDelta}, {"wc", rpcc.LevelWeak}}
	for _, l := range levels {
		s, err := newSim()
		if err != nil {
			return err
		}
		c := measure(ops, func() {
			for i := 0; i < ops && err == nil; i++ {
				host := i % opts.Peers
				if err = s.Query(host, (host+1+i%5)%opts.Peers, l.level); err == nil {
					err = s.RunFor(200 * time.Millisecond)
				}
			}
		})
		if err != nil {
			return err
		}
		v["core.query_host_us."+l.name] = c.ns / 1e3
	}
	s, err := newSim()
	if err != nil {
		return err
	}
	c := measure(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			if err = s.Update(i % opts.Peers); err == nil {
				err = s.RunFor(200 * time.Millisecond)
			}
		}
	})
	if err != nil {
		return err
	}
	v["core.update_host_us"] = c.ns / 1e3
	return nil
}

func probeCache(v values, n int, _ int64) error {
	const universe, capacity = 50, 10
	reg, err := data.NewRegistry(universe)
	if err != nil {
		return err
	}
	copies := make([]data.Copy, universe)
	for i := range copies {
		m, err := reg.Master(data.ItemID(i))
		if err != nil {
			return err
		}
		copies[i] = m.Current()
	}
	store, err := cache.NewStore(capacity)
	if err != nil {
		return err
	}
	ops := 10 * n
	v["cache.put_evict_ns"] = measure(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			_, _, err = store.PutEvict(copies[i%universe], time.Duration(i))
		}
	}).ns
	if err != nil {
		return err
	}
	v["cache.get_ns"] = measure(ops, func() {
		for i := 0; i < ops; i++ {
			store.Get(data.ItemID(i % universe))
		}
	}).ns
	return nil
}

func probeProtocol(v values, n int, _ int64) error {
	poll := protocol.Frame{From: 0, Flood: true, TTL: 2, Seq: 7,
		Msg: protocol.Message{Kind: protocol.KindPoll, Item: 3, Origin: 0, Version: 41, Seq: 9}}
	body := data.Copy{ID: 3, Version: 42, Value: strings.Repeat("x", 1024), WrittenAt: time.Minute}
	ackb := protocol.Frame{From: 3, To: 0, Seq: 8,
		Msg: protocol.Message{Kind: protocol.KindPollAckB, Item: 3, Origin: 3, Version: 42, Copy: body, Seq: 9}}
	for _, f := range []struct {
		name  string
		frame protocol.Frame
	}{{"poll", poll}, {"ackb", ackb}} {
		buf, err := protocol.MarshalFrame(f.frame)
		if err != nil {
			return err
		}
		c := measure(n, func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = protocol.MarshalFrame(f.frame)
			}
		})
		if err != nil {
			return err
		}
		v["protocol.frame_marshal_ns."+f.name], v["protocol.frame_marshal_allocs."+f.name] = c.ns, c.allocs
		c = measure(n, func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = protocol.UnmarshalFrame(buf)
			}
		})
		if err != nil {
			return err
		}
		v["protocol.frame_unmarshal_ns."+f.name], v["protocol.frame_unmarshal_allocs."+f.name] = c.ns, c.allocs
	}
	return nil
}

func probeWire(v values, n int, _ int64) (err error) {
	ops := n / 5
	// Clock.Inject round trip: hand a closure to the kernel goroutine and
	// wait for it to run.
	clock := wire.NewClock(sim.NewKernel())
	clock.Start()
	ran := make(chan struct{})
	note := func(*sim.Kernel) { ran <- struct{}{} }
	v["wire.inject_ns"] = measure(ops, func() {
		for i := 0; i < ops; i++ {
			if !clock.Inject(note) {
				err = fmt.Errorf("clock refused an injection")
				return
			}
			<-ran
		}
	}).ns
	if stopErr := clock.Stop(2 * time.Second); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}

	// Transport.Unicast between a pair of sockets: encode, send, receive,
	// decode, and inject into the receiver's clock.
	conns := make([]*net.UDPConn, 2)
	peers := map[int]string{}
	for i := range conns {
		if conns[i], err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			return err
		}
		peers[i] = conns[i].LocalAddr().String()
	}
	clocks := make([]*wire.Clock, 2)
	trs := make([]*wire.Transport, 2)
	for i := range trs {
		clocks[i] = wire.NewClock(sim.NewKernel())
		trs[i], err = wire.NewTransport(wire.TransportConfig{Self: i, Nodes: 2, Peers: peers, Conn: conns[i]},
			clocks[i], stats.NewTraffic())
		if err != nil {
			return err
		}
	}
	got := make(chan struct{}, 1)
	if err := trs[1].SetReceiver(1, func(*sim.Kernel, int, protocol.Message, netsim.Meta) { got <- struct{}{} }); err != nil {
		return err
	}
	for i := range trs {
		trs[i].Run()
		clocks[i].Start()
	}
	defer func() {
		for i := range trs {
			if stopErr := clocks[i].Stop(2 * time.Second); err == nil {
				err = stopErr
			}
			if closeErr := trs[i].Close(); err == nil {
				err = closeErr
			}
		}
	}()
	msg := protocol.Message{Kind: protocol.KindPoll, Item: 1, Origin: 0, Version: 1}
	// The transport is driven from its own kernel goroutine in a daemon;
	// do the same here.
	sendFailed := make(chan error, 1)
	send := func(*sim.Kernel) {
		if err := trs[0].Unicast(0, 1, msg); err != nil {
			sendFailed <- err
		}
	}
	v["wire.unicast_ns"] = measure(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			if !clocks[0].Inject(send) {
				err = fmt.Errorf("clock refused an injection")
				return
			}
			select {
			case <-got:
			case err = <-sendFailed:
			case <-time.After(2 * time.Second):
				err = fmt.Errorf("unicast %d never arrived", i)
			}
		}
	}).ns
	return err
}

// probeTelemetry compares the rpcc-sc leg of paper50-read with the
// metrics hub on (experiment.Run) and off (a nil hub).
func probeTelemetry(v values, n int, seed int64) error {
	cfg := experiment.DefaultConfig(experiment.StrategyRPCCSC, seed)
	cfg.SimTime = time.Duration(n) * 20 * time.Millisecond
	var on, off []float64
	for i := 0; i < 3; i++ {
		var err error
		on = append(on, measure(1, func() { _, err = experiment.Run(cfg) }).ns)
		if err != nil {
			return err
		}
		off = append(off, measure(1, func() { _, err = experiment.RunWithTelemetry(cfg, nil) }).ns)
		if err != nil {
			return err
		}
	}
	v["telemetry.metrics_overhead"] = median(on)/median(off) - 1
	return nil
}
