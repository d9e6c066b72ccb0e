package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metricKind tags what a registered name points at, so get-or-create
// can reject a name reused across types loudly instead of corrupting
// the rendering.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "invalid"
}

// promType is the Prometheus exposition TYPE of a kind.
func (k metricKind) promType() string {
	if k == kindHistogram {
		return "summary"
	}
	return k.String()
}

type metricEntry struct {
	name string // full series name, labels included
	kind metricKind
	help string

	counter *Counter
	hist    *Histogram
	cfn     func() int64
	gfn     func() float64
}

// Registry is a named collection of metrics. Metric names follow
// Prometheus conventions (snake_case, unit suffix, _total for
// counters) and may carry a label set inline, e.g.
// `pl_rxnet_ingest_bytes_total{node="3"}` — series sharing a base
// name form one family in the exposition. All methods are safe for
// concurrent use; the typed getters are get-or-create, so independent
// layers can register the same series and share it.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*metricEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*metricEntry)}
}

// get returns the entry for name, creating it with kind/help via
// build when absent. A name registered under a different kind panics:
// that is a programming error two layers cannot resolve at runtime.
func (r *Registry) get(name string, kind metricKind, help string, build func(e *metricEntry)) *metricEntry {
	if err := checkName(name); err != nil {
		panic(fmt.Sprintf("telemetry: %v", err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q already registered as %s, requested %s", name, e.kind, kind))
		}
		return e
	}
	e := &metricEntry{name: name, kind: kind, help: help}
	build(e)
	r.entries[name] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, kindCounter, help, func(e *metricEntry) { e.counter = &Counter{} }).counter
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.get(name, kindHistogram, help, func(e *metricEntry) { e.hist = &Histogram{} }).hist
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — for layers that already maintain their own atomics
// (the stream engine's Stats counters) and should not pay for a
// second increment on the hot path. The first registration of a name
// wins; later ones are no-ops.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.get(name, kindCounterFunc, help, func(e *metricEntry) { e.cfn = fn })
}

// GaugeFunc registers a gauge computed at snapshot time (table sizes,
// queue depths, ring occupancy). The first registration of a name
// wins; later ones are no-ops.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.get(name, kindGaugeFunc, help, func(e *metricEntry) { e.gfn = fn })
}

// checkName validates `base` or `base{label="v",...}` with a
// Prometheus-shaped base name.
func checkName(name string) error {
	base, labels := splitName(name)
	if base == "" {
		return fmt.Errorf("empty metric name %q", name)
	}
	for i, c := range base {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("metric name %q: invalid character %q", name, c)
		}
	}
	if labels != "" && (!strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}")) {
		return fmt.Errorf("metric name %q: malformed label set", name)
	}
	return nil
}

// splitName separates the family base name from the inline label set.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Snapshot is the JSON form of a registry: every series by full name,
// histograms as the shared HistogramSnapshot schema.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// sorted returns the entries ordered by name, decoupled from the map.
func (r *Registry) sorted() []*metricEntry {
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// Snapshot collects every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			s.Counters[e.name] = e.counter.Value()
		case kindCounterFunc:
			s.Counters[e.name] = e.cfn()
		case kindGaugeFunc:
			s.Gauges[e.name] = e.gfn()
		case kindHistogram:
			s.Histograms[e.name] = e.hist.Snapshot()
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON (the /metrics.json
// payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: one HELP/TYPE header per family, histograms as
// summaries with p50/p90/p99 quantile series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var lastFamily string
	for _, e := range r.sorted() {
		base, labels := splitName(e.name)
		if base != lastFamily {
			lastFamily = base
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, e.kind.promType()); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.counter.Value())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.cfn())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %g\n", e.name, e.gfn())
		case kindHistogram:
			s := e.hist.Snapshot()
			for _, q := range [...]struct {
				q string
				v float64
			}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
				if _, err = fmt.Fprintf(w, "%s %g\n", quantileSeries(base, labels, q.q), q.v); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %d\n", base, labels, s.Sum); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", base, labels, s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// quantileSeries splices a quantile label into a possibly-labeled
// series name.
func quantileSeries(base, labels, q string) string {
	if labels == "" {
		return fmt.Sprintf("%s{quantile=%q}", base, q)
	}
	return fmt.Sprintf("%s{quantile=%q,%s", base, q, labels[1:])
}
