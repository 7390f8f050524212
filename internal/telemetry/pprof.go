package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServePprof starts an HTTP server exposing net/http/pprof on addr
// (e.g. "localhost:6060") and returns the bound address — the live
// profile of a long-running daemon (rpccd -pprof); batch commands write
// a -cpuprofile instead. This is the one opt-in wall-clock facility in
// the package: profiling is inherently about real time and never feeds
// back into exported values. The server runs until the process exits.
func ServePprof(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: pprof listen %s: %w", addr, err)
	}
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
