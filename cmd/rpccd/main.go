// Command rpccd is the live RPCC node daemon: the full protocol engine
// (internal/core) bound to a real UDP socket (internal/wire), with
// source duties gated to this node's id. N daemons with the same peer
// table compose into exactly the simulated N-node system.
//
// Examples:
//
//	rpccd -id 0 -n 3 -listen 127.0.0.1:9000 \
//	      -peers "0=127.0.0.1:9000,1=127.0.0.1:9001,2=127.0.0.1:9002"
//	rpccd -id 1 -n 3 -listen 127.0.0.1:9001 -peers-file peers.txt \
//	      -strategy rpcc-dc -metrics-out node1.prom
//	rpccd -compose -n 8 -compose-out deploy/   # emit docker-compose + churn
//
// The daemon runs until -duration elapses (zero = forever) or SIGTERM/
// SIGINT arrives; either way it drains the engine within -drain, closes
// the socket, flushes telemetry sinks, and prints a one-line summary.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/manetlab/rpcc/internal/core"
	"github.com/manetlab/rpcc/internal/data"
	"github.com/manetlab/rpcc/internal/faults"
	"github.com/manetlab/rpcc/internal/telemetry"
	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
	"github.com/manetlab/rpcc/internal/wire"
)

// traceSpanCap bounds the causal trace of a daemon, which unlike a
// simulation has no horizon: past it new spans are refused and counted
// in rpcc_spans_dropped_total (-metrics-out) rather than held in memory.
const traceSpanCap = 1 << 18

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rpccd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.Int("id", 0, "this node's id (0..n-1)")
		n        = flag.Int("n", 0, "cluster width (number of nodes)")
		listen   = flag.String("listen", "", "UDP listen address (host:port; defaults to this id's peer entry)")
		peers    = flag.String("peers", "", "static peer table: \"0=host:port,1=host:port,...\"")
		peerFile = flag.String("peers-file", "", "peer table file: one \"id=host:port\" per line, # comments")
		strategy = flag.String("strategy", wire.StrategyRPCCSC, "rpcc-sc | rpcc-dc | rpcc-wc | rpcc-hy")
		seed     = flag.Int64("seed", 1, "workload seed for this daemon")
		cacheNum = flag.Int("cachenum", 4, "foreign items cached (cyclic placement), ignored with -items")
		items    = flag.String("items", "", "explicit placement: comma-separated item ids (overrides -cachenum)")
		query    = flag.Duration("query", 250*time.Millisecond, "mean query interval (0 disables the workload)")
		update   = flag.Duration("update", time.Second, "mean update interval for this node's item")
		ttn      = flag.Duration("ttn", 0, "invalidation announcement interval (0 = protocol default)")
		ttr      = flag.Duration("ttr", 0, "relay freshness window (0 = protocol default)")
		ttp      = flag.Duration("ttp", 0, "delta-consistency window (0 = protocol default)")
		coeff    = flag.Duration("coeff", 0, "coefficient recomputation period (0 = protocol default)")
		duration = flag.Duration("duration", 0, "run length (0 = run until SIGTERM/SIGINT)")
		drain    = flag.Duration("drain", 5*time.Second, "shutdown drain deadline")

		faultsIn   = flag.String("faults", "", "JSON fault campaign (the schema rpcc run and rpcc wire read); every daemon of a campaign loads the same file")
		faultsOff  = flag.Duration("faults-offset", 0, "campaign time already elapsed at this daemon's start (restarted daemons)")
		ownVersion = flag.Uint64("own-version", 0, "resume this daemon's own item at this version (restarted daemons)")
		crashAfter = flag.Duration("crash-after", 0, "abruptly exit(3) after this long — no drain, no flush (chaos harnesses)")

		metricsOut = flag.String("metrics-out", "", "write Prometheus text metrics to this file at shutdown")
		traceOut   = flag.String("trace-out", "", "write this daemon's causal-trace span JSONL to this file at shutdown (rpcc view/lint merge several)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")

		compose    = flag.Bool("compose", false, "emit a docker-compose deployment instead of running")
		composeOut = flag.String("compose-out", ".", "directory for docker-compose.yml and churn.sh")
		image      = flag.String("image", "rpcc:latest", "container image for -compose")
		prefix     = flag.String("prefix", "rpcc-node-", "service/container name prefix for -compose")
		port       = flag.Int("port", 9000, "in-container UDP port for -compose")
	)
	flag.Parse()

	if *compose {
		return emitCompose(composeConfig(*n, *strategy, *image, *prefix, *port, *seed, *cacheNum,
			*query, *update, *ttn, *ttr, *ttp, *coeff, *duration), *composeOut)
	}

	table, err := peerTable(*peers, *peerFile)
	if err != nil {
		return err
	}
	if *n == 0 {
		*n = len(table)
	}
	if len(table) != *n {
		return fmt.Errorf("peer table has %d entries, want n=%d", len(table), *n)
	}
	if *id < 0 || *id >= *n {
		return fmt.Errorf("id %d out of range [0,%d)", *id, *n)
	}
	addr := *listen
	if addr == "" {
		addr = table[*id]
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("listen address %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}

	placement, err := parsePlacement(*items, *id, *n, *cacheNum)
	if err != nil {
		conn.Close()
		return err
	}

	cc := core.DefaultConfig()
	if *ttn > 0 {
		cc.TTN = *ttn
	}
	if *ttr > 0 {
		cc.TTR = *ttr
	}
	if *ttp > 0 {
		cc.TTP = *ttp
	}
	if *coeff > 0 {
		cc.CoeffPeriod = *coeff
	}

	var hub *telemetry.Hub
	if *metricsOut != "" {
		hub = telemetry.NewHub(telemetry.LevelMetrics)
	}
	if *pprofAddr != "" {
		got, err := telemetry.ServePprof(*pprofAddr)
		if err != nil {
			conn.Close()
			return err
		}
		fmt.Fprintln(os.Stderr, "rpccd: pprof on", got)
	}

	var tracer *ctrace.Collector
	if *traceOut != "" {
		tracer = ctrace.NewBoundedCollector(*id, traceSpanCap)
	}
	var script *faults.Config
	if *faultsIn != "" {
		script, err = faults.LoadScript(*faultsIn)
		if err != nil {
			conn.Close()
			return err
		}
	}
	nd, err := wire.NewNode(wire.NodeConfig{
		Self: *id, Nodes: *n, Peers: table, Conn: conn,
		Seed: *seed, Strategy: *strategy, Core: cc,
		Placement: placement, QueryInterval: *query, UpdateInterval: *update,
		Hub: hub, Trace: tracer,
		Chaos: script, ChaosOffset: *faultsOff,
		ResumeOwnVersion: data.Version(*ownVersion),
	})
	if err != nil {
		conn.Close()
		return err
	}
	if err := nd.Start(); err != nil {
		nd.Stop(*drain)
		return err
	}
	fmt.Fprintf(os.Stderr, "rpccd: node %d/%d (%s) listening on %s\n",
		*id, *n, *strategy, nd.LocalAddr())

	// Run until the duration elapses or a signal arrives; both paths go
	// through the same deadline-bounded drain. -crash-after bypasses them
	// entirely: a scheduled chaos crash is abrupt by definition.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	var timeout <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		timeout = t.C
	}
	var crash <-chan time.Time
	if *crashAfter > 0 {
		t := time.NewTimer(*crashAfter)
		defer t.Stop()
		crash = t.C
	}
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rpccd: %v, draining (deadline %v)\n", sig, *drain)
	case <-timeout:
		fmt.Fprintf(os.Stderr, "rpccd: %v elapsed, draining (deadline %v)\n", *duration, *drain)
	case <-crash:
		fmt.Fprintf(os.Stderr, "rpccd: scheduled crash after %v\n", *crashAfter)
		os.Exit(3)
	}
	stopErr := nd.Stop(*drain)

	// Flush sinks even on an unclean drain — partial telemetry beats none.
	if *metricsOut != "" {
		// Zero (and so absent from the export) without a tracer or under the bound.
		hub.Counter("rpcc_spans_dropped_total",
			"Spans refused after the trace collector reached its bound.").Add(tracer.Refused())
		if err := telemetry.WritePrometheusFile(*metricsOut, hub.Snapshot()); err != nil {
			return err
		}
	}
	if tracer != nil {
		if err := ctrace.WriteFile(*traceOut, nd.TraceSpans()); err != nil {
			return err
		}
	}
	fmt.Println(nd.Summary())
	return stopErr
}

// peerTable parses the -peers list or -peers-file into id -> address.
func peerTable(inline, file string) (map[int]string, error) {
	if (inline == "") == (file == "") {
		return nil, fmt.Errorf("exactly one of -peers or -peers-file is required")
	}
	var entries []string
	if inline != "" {
		entries = strings.Split(inline, ",")
	} else {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			entries = append(entries, line)
		}
	}
	table := make(map[int]string, len(entries))
	for _, e := range entries {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(e), "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q: want id=host:port", e)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("peer entry %q: bad id: %w", e, err)
		}
		if _, dup := table[id]; dup {
			return nil, fmt.Errorf("peer entry %q: duplicate id %d", e, id)
		}
		table[id] = strings.TrimSpace(addr)
	}
	return table, nil
}

// parsePlacement resolves -items or falls back to cyclic placement.
func parsePlacement(items string, self, n, cacheNum int) ([]data.ItemID, error) {
	if items == "" {
		return wire.CyclicPlacement(self, n, cacheNum), nil
	}
	var out []data.ItemID
	for _, f := range strings.Split(items, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("placement item %q: %w", f, err)
		}
		out = append(out, data.ItemID(v))
	}
	return out, nil
}

func composeConfig(n int, strategy, image, prefix string, port int, seed int64, cacheNum int,
	query, update, ttn, ttr, ttp, coeff, duration time.Duration) wire.ComposeConfig {
	cfg := wire.DefaultComposeConfig()
	if n > 0 {
		cfg.N = n
	}
	cfg.Strategy = strategy
	cfg.Image = image
	cfg.Prefix = prefix
	cfg.Port = port
	cfg.Seed = seed
	cfg.CacheNum = cacheNum
	cfg.QueryInterval = query
	cfg.UpdateInterval = update
	cfg.TTN, cfg.TTR, cfg.TTP, cfg.CoeffPeriod = ttn, ttr, ttp, coeff
	cfg.Duration = duration
	return cfg
}

// emitCompose writes docker-compose.yml and churn.sh into dir.
func emitCompose(cfg wire.ComposeConfig, dir string) error {
	composeYML, err := cfg.GenerateCompose()
	if err != nil {
		return err
	}
	churnSH, err := cfg.GenerateChurn()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ymlPath := filepath.Join(dir, "docker-compose.yml")
	if err := os.WriteFile(ymlPath, []byte(composeYML), 0o644); err != nil {
		return err
	}
	churnPath := filepath.Join(dir, "churn.sh")
	if err := os.WriteFile(churnPath, []byte(churnSH), 0o755); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s (%d-node %s cluster)\n", ymlPath, churnPath, cfg.N, cfg.Strategy)
	return nil
}
