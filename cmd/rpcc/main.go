// Command rpcc is the one front end to the simulator, its gates and its
// trace tools: run, scale, figures, conform, wire, view and lint (see
// commands below). `rpcc` alone lists them; `rpcc <subcommand> -h`
// lists one's flags and examples. The live daemon is a separate binary,
// rpccd.
//
// Every batch subcommand honours one interrupt discipline: the first
// SIGINT/SIGTERM finishes what is in flight and flushes every output
// (a deterministic simulation cannot stop midway), the second aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
)

// command is one subcommand: its name, a one-line summary for the
// top-level usage, and its entry point.
type command struct {
	name, summary string
	run           func(ctx context.Context, args []string) error
}

var commands = []command{
	{"run", "one scenario (-replicas seeds, -faults campaign), full metric report", runCmd},
	{"scale", "one large-population scenario as independent regions", scaleCmd},
	{"figures", "every figure of §5 (Fig 7a–c, 8a–c, 9a–b, relay count)", figuresCmd},
	{"conform", "differential conformance gate: mutants, clean sweeps, fuzz", conformCmd},
	{"wire", "loopback UDP cluster of live daemons, judged by the live oracle", wireCmd},
	{"view", "causal trace(s) as a deterministic text report", viewCmd},
	{"lint", "validate Prometheus text and causal traces", lintCmd},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// dispatch runs the subcommand args names and returns the exit status:
// 0 on success, 1 when the subcommand fails, 2 on a usage error.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		ctx, stop := interruptContext()
		defer stop()
		if err := c.run(ctx, args[1:]); err != nil {
			fmt.Fprintf(stderr, "rpcc %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "rpcc: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: rpcc <subcommand> [flags]   (rpcc <subcommand> -h lists its flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
}

// newFlagSet returns the flag set of one subcommand; synopsis heads its
// -h output.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet("rpcc "+name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rpcc %s [flags]\n%s\n\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// interruptContext returns a context cancelled by the first SIGINT or
// SIGTERM, after which the default fatal behaviour is restored: a second
// interrupt aborts. Subcommands consult the context only at boundaries
// (between fleet runs, between conform phases), so the first interrupt
// lets in-flight work finish and every sink flush. The returned cancel
// function releases the signal watch.
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sigc)
		select {
		case <-sigc:
			fmt.Fprintln(os.Stderr, "rpcc: interrupt — finishing in-flight work so outputs flush (interrupt again to abort)")
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// profileFlags registers -cpuprofile and -memprofile on fs. The returned
// function, called after Parse, starts the CPU profile and returns the
// stop function that ends it and writes the allocation profile. With
// -memprofile every allocation is sampled (runtime.MemProfileRate = 1),
// so the profile attributes each malloc a run makes, not one per 512 KiB.
func profileFlags(fs *flag.FlagSet) func() (stop func(), err error) {
	cpuPath := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memPath := fs.String("memprofile", "", "write an allocation profile (allocs) to this file at exit")
	return func() (func(), error) {
		var cpu, mem *os.File
		var err error
		if *memPath != "" {
			if mem, err = os.Create(*memPath); err != nil {
				return nil, err
			}
			runtime.MemProfileRate = 1
		}
		if *cpuPath != "" {
			if cpu, err = os.Create(*cpuPath); err == nil {
				if err = pprof.StartCPUProfile(cpu); err != nil {
					cpu.Close()
				}
			}
			if err != nil {
				if mem != nil {
					mem.Close()
				}
				return nil, err
			}
		}
		return func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			if mem != nil {
				runtime.GC() // the allocs profile is as of the last collection
				err := pprof.Lookup("allocs").WriteTo(mem, 0)
				if cerr := mem.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "rpcc: -memprofile: %v\n", err)
				}
			}
		}, nil
	}
}

// peakRSSKB returns this process's peak resident set size in KiB: VmHWM
// of /proc/self/status. getrusage's ru_maxrss is not used because it
// keeps the high-water mark of the image that exec'd this one — under
// `go run`, the go tool's. 0 where /proc is unavailable.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
