// Runtime exposition over HTTP: a handler serving the Prometheus and
// JSON writers from a snapshot source, and a small server wrapper with
// graceful shutdown for the long-running binaries' -metrics flags.
//
// This file deliberately touches no virtual time — net/http lives on
// the wall clock, and the telemetry package sits outside the simulator's
// virtual-time boundary (it is not in demuxvet's VirtualTimePackages).
package telemetry

import (
	"context"
	"net"
	"net/http"
)

// Handler serves metrics from src, which is called once per request so
// scrapes always see current values:
//
//	/metrics       Prometheus text exposition format
//	/metrics.json  JSON snapshot with derived percentiles
func Handler(src func() Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		src().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		src().WriteJSON(w)
	})
	return mux
}

// MetricsServer is a running HTTP exposition endpoint. It shuts down
// gracefully: Shutdown stops accepting, lets in-flight scrapes finish
// writing, and only then returns — so a SIGTERM during a Prometheus
// scrape does not truncate the exposition mid-body.
type MetricsServer struct {
	srv  *http.Server
	addr string
}

// StartServer begins serving the exposition endpoint on addr (host:port;
// port 0 picks a free port).
func StartServer(addr string, src func() Snapshot) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(src)}
	go srv.Serve(ln)
	return &MetricsServer{srv: srv, addr: ln.Addr().String()}, nil
}

// Addr returns the bound listen address.
func (m *MetricsServer) Addr() string { return m.addr }

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight scrapes run to completion, and the call returns when all
// handlers have finished or ctx expires (in which case the remaining
// connections are dropped, and ctx's error is returned).
func (m *MetricsServer) Shutdown(ctx context.Context) error {
	return m.srv.Shutdown(ctx)
}
