// Command tracecol aggregates causal traces from a live cluster: it
// listens on TCP, accepts one span-JSONL stream per connection (what
// rpccd -trace-to ships at shutdown), and once the expected number of
// streams has arrived merges them into one canonically ordered trace
// file — the same format rpccsim -trace-out writes, consumable by
// traceview and telemetrylint -trace.
//
//	tracecol -listen 127.0.0.1:9900 -n 5 -out trace.jsonl
//
// Streams are merged in (StartNs, Region, Seq) order, so the output is
// independent of daemon shutdown order. -timeout bounds the total wait;
// on timeout the streams received so far are merged and written, and the
// exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	ctrace "github.com/manetlab/rpcc/internal/telemetry/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracecol:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", "127.0.0.1:9900", "TCP listen address")
		n       = flag.Int("n", 1, "number of span streams to expect")
		out     = flag.String("out", "trace.jsonl", "merged trace output file")
		timeout = flag.Duration("timeout", time.Minute, "total wait for all streams")
	)
	flag.Parse()
	if *n < 1 {
		return fmt.Errorf("-n %d must be >= 1", *n)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "tracecol: listening on %s for %d streams\n", ln.Addr(), *n)

	deadline := time.Now().Add(*timeout)
	sets := make([][]ctrace.Span, 0, *n)
	var timedOut bool
	for len(sets) < *n {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				timedOut = true
				break
			}
			return err
		}
		conn.SetReadDeadline(deadline.Add(10 * time.Second))
		spans, err := ctrace.ReadJSONL(conn)
		conn.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecol: dropping malformed stream from %s: %v\n", conn.RemoteAddr(), err)
			continue
		}
		sets = append(sets, spans)
		fmt.Fprintf(os.Stderr, "tracecol: stream %d/%d: %d spans\n", len(sets), *n, len(spans))
	}

	merged := ctrace.Merge(sets...)
	if err := ctrace.WriteFile(*out, merged); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracecol: %d spans from %d streams -> %s\n", len(merged), len(sets), *out)
	if timedOut {
		return fmt.Errorf("timed out with %d of %d streams", len(sets), *n)
	}
	return nil
}
