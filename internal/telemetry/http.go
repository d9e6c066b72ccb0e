package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// CheckResult is one health check's outcome.
type CheckResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Health aggregates named liveness/degradation checks for /healthz.
// A check returns ok=false with a human-readable detail when its
// condition degrades (drop counters growing, session table full).
// Checks run on every probe, in registration order; they must be safe
// for concurrent use and fast (a probe holds no lock while running
// them beyond the registration list copy).
type Health struct {
	mu     sync.Mutex
	checks []namedCheck
}

type namedCheck struct {
	name string
	fn   func() (ok bool, detail string)
}

// NewHealth builds an empty check set (always healthy).
func NewHealth() *Health { return &Health{} }

// AddCheck registers a named check.
func (h *Health) AddCheck(name string, fn func() (ok bool, detail string)) {
	h.mu.Lock()
	h.checks = append(h.checks, namedCheck{name: name, fn: fn})
	h.mu.Unlock()
}

// Run executes every check.
func (h *Health) Run() []CheckResult {
	h.mu.Lock()
	checks := make([]namedCheck, len(h.checks))
	copy(checks, h.checks)
	h.mu.Unlock()
	out := make([]CheckResult, len(checks))
	for i, c := range checks {
		ok, detail := c.fn()
		out[i] = CheckResult{Name: c.name, OK: ok, Detail: detail}
	}
	return out
}

// Handler serves the registry and health checks:
//
//	/metrics      Prometheus text exposition
//	/metrics.json Snapshot as JSON
//	/healthz      200 "ok" when every check passes, 503 "degraded"
//	              with one line per failing check otherwise
//	/debug/pprof/ the runtime profiles of net/http/pprof (index,
//	              cmdline, profile, symbol, trace)
//
// health may be nil (always healthy).
func Handler(reg *Registry, health *Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var results []CheckResult
		if health != nil {
			results = health.Run()
		}
		degraded := false
		for _, res := range results {
			if !res.OK {
				degraded = true
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "degraded")
		} else {
			fmt.Fprintln(w, "ok")
		}
		for _, res := range results {
			if res.OK {
				fmt.Fprintf(w, "ok %s\n", res.Name)
			} else {
				fmt.Fprintf(w, "degraded %s: %s\n", res.Name, res.Detail)
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a live metrics endpoint bound to a TCP address.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// StartServer serves Handler(reg, health) on addr ("host:port"; empty
// port picks an ephemeral one) in a background goroutine.
func StartServer(addr string, reg *Registry, health *Health) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: Handler(reg, health)}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (for ephemeral ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
