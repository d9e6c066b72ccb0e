package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with deterministic values covering
// every metric kind and a labeled family.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("pl_test_detections_total", "decoded packets").Add(7)
	reg.Counter(`pl_test_ingest_bytes_total{node="1"}`, "per-node ingest").Add(1024)
	reg.Counter(`pl_test_ingest_bytes_total{node="2"}`, "per-node ingest").Add(2048)
	reg.Gauge("pl_test_sessions_active", "tracked sessions").Set(3)
	reg.GaugeFunc("pl_test_queue_depth", "listener queue depth", func() float64 { return 5 })
	reg.CounterFunc("pl_test_samples_in_total", "samples accepted", func() int64 { return 9000 })
	h := reg.Histogram("pl_test_latency_ns", "detection latency")
	for v := int64(1); v <= 10; v++ {
		h.Observe(v) // exact region: quantiles are exact
	}
	return reg
}

func TestRegistryPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pl_test_detections_total decoded packets
# TYPE pl_test_detections_total counter
pl_test_detections_total 7
# HELP pl_test_ingest_bytes_total per-node ingest
# TYPE pl_test_ingest_bytes_total counter
pl_test_ingest_bytes_total{node="1"} 1024
pl_test_ingest_bytes_total{node="2"} 2048
# HELP pl_test_latency_ns detection latency
# TYPE pl_test_latency_ns summary
pl_test_latency_ns{quantile="0.5"} 5
pl_test_latency_ns{quantile="0.9"} 9
pl_test_latency_ns{quantile="0.99"} 10
pl_test_latency_ns_sum 55
pl_test_latency_ns_count 10
# HELP pl_test_queue_depth listener queue depth
# TYPE pl_test_queue_depth gauge
pl_test_queue_depth 5
# HELP pl_test_samples_in_total samples accepted
# TYPE pl_test_samples_in_total counter
pl_test_samples_in_total 9000
# HELP pl_test_sessions_active tracked sessions
# TYPE pl_test_sessions_active gauge
pl_test_sessions_active 3
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{
  "counters": {
    "pl_test_detections_total": 7,
    "pl_test_ingest_bytes_total{node=\"1\"}": 1024,
    "pl_test_ingest_bytes_total{node=\"2\"}": 2048,
    "pl_test_samples_in_total": 9000
  },
  "gauges": {
    "pl_test_queue_depth": 5,
    "pl_test_sessions_active": 3
  },
  "histograms": {
    "pl_test_latency_ns": {
      "count": 10,
      "sum": 55,
      "min": 1,
      "max": 10,
      "p50": 5,
      "p90": 9,
      "p99": 10
    }
  }
}
`
	if got := b.String(); got != want {
		t.Fatalf("JSON snapshot drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("pl_shared_total", "shared")
	b := reg.Counter("pl_shared_total", "shared")
	if a != b {
		t.Fatal("get-or-create returned distinct counters for one name")
	}
	a.Add(2)
	b.Add(3)
	if got := reg.Snapshot().Counters["pl_shared_total"]; got != 5 {
		t.Fatalf("shared counter = %d, want 5", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pl_kind_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("pl_kind_total", "")
}

func TestRegistryBadNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("pl bad name", "")
}

func TestHandlerEndpoints(t *testing.T) {
	reg := goldenRegistry()
	health := NewHealth()
	degraded := false
	health.AddCheck("drops", func() (bool, string) {
		if degraded {
			return false, "drop counters growing"
		}
		return true, ""
	})
	srv := httptest.NewServer(Handler(reg, health))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "pl_test_detections_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"pl_test_detections_total": 7`) {
		t.Fatalf("/metrics.json: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("healthy /healthz: code %d body %q", code, body)
	}
	degraded = true
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "degraded drops: drop counters growing") {
		t.Fatalf("degraded /healthz: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/goroutine?debug=1"); code != 200 || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("/debug/pprof/goroutine: code %d body %.80q", code, body)
	}
	if code, _ := get("/debug/pprof/symbol"); code != 200 {
		t.Fatalf("/debug/pprof/symbol: code %d", code)
	}
}

func TestStartServer(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", goldenRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz on StartServer: code %d", resp.StatusCode)
	}
}
