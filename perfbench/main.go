// Command perfbench is the repository benchmark: one command that runs
// a named workload against the receiver system through its public
// functions, checks every decoded pass against the packet its scenario
// encoded, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run).
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload flood-direct --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. DESIGN.md records why each
// workload exists and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is what a workload needs from the command line. The seed
// only shapes the generated inputs; the system under test never sees
// it.
type runConfig struct {
	seed   int64
	window time.Duration
	procs  int
}

// result is one workload run. headline carries the six figures a user
// of the system would see; layers the per-layer figures, of which the
// span-derived ones are filled in only when the run was traced.
type result struct {
	failures  failureCounts
	invariant []string // counters that should read 0 and did not
	headline  map[string]float64
	layers    map[string]float64
	notes     []string
}

func newResult() *result {
	return &result{headline: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload for cfg.window. rec is nil for an
// untraced run.
type workloadFunc func(cfg runConfig, rec *recorder) (*result, error)

var workloads = map[string]workloadFunc{
	"sim-outdoor":  runSimOutdoor,
	"flood-direct": runFloodDirect,
	"paced-routed": runPacedRouted,
}

type metricSpec struct{ name, unit string }

// headlineMetrics are printed by every run. Only the ones steady
// enough on a shared host to gate a change are end-to-end metrics; the
// wall-clock ones are per-layer metrics of the traced run (DESIGN.md
// gives the spreads that decided it).
var headlineMetrics = []metricSpec{
	{"setup_s", "s"},
	{"passes_per_s", "1/s"},
	{"cpu_ms_per_pass", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// endToEndMetrics and layerMetrics list the metrics of the JSON line,
// with their units, in BENCHMARK.json's order.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_pass", "ms"},
	{"live_heap_mb", "MB"},
}

var layerMetrics = []metricSpec{
	{"passes_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"scenario.compile_us", "us"},
	{"channel.render_us", "us"},
	{"noise.apply_us", "us"},
	{"frontend.digitize_us", "us"},
	{"decoder.carpass_us", "us"},
	{"decoder.ok_ratio", "ratio"},
	{"rxnet.marshal_ns_per_sample", "ns"},
	{"rxnet.unmarshal_ns_per_sample", "ns"},
	{"rxnet.write_blocked_us_per_chunk", "us"},
	{"rxnet.write_us_per_chunk", "us"},
	{"source.next_wait_us_per_chunk", "us"},
	{"source.feed_us_per_chunk", "us"},
	{"decoder.incremental_ns_per_sample", "ns"},
	{"stream.decode_step_p50_us", "us"},
	{"stream.decode_step_p99_us", "us"},
	{"stream.detection_latency_p50_us", "us"},
	{"stream.detection_latency_p99_us", "us"},
	{"transport.latency_p50_us", "us"},
	{"stream.occupancy_mean", "ratio"},
	{"stream.samples_in", "count"},
	{"stream.detections", "count"},
	{"stream.decode_errors", "count"},
	{"stream.dropped_samples", "count"},
	{"stream.sessions_evicted", "count"},
	{"rxnet.dropped_chunks", "count"},
	{"rxnet.duplicate_chunks", "count"},
	{"rxnet.stream_resets", "count"},
	{"cluster.chunks_forwarded", "count"},
	{"cluster.replayed_chunks", "count"},
	{"cluster.nacks_received", "count"},
	{"cluster.undeliverable_chunks", "count"},
	{"cluster.routes_active", "count"},
	{"generator.late_us_p99", "us"},
	{"runtime.alloc_kb_per_pass", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.cpu_explained_pct", "%"},
	{"trace.stage_replay_mismatches", "count"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-outdoor | flood-direct | paced-routed")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1 runs the untraced and traced phases and prints the per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory the traced run writes its span dump to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload sim-outdoor|flood-direct|paced-routed, -seconds > 0, -trace 0|1 (got %q, %g, %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), procs: runtime.GOMAXPROCS(0)}
	line, err := execute(*name, run, cfg, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// execute runs the workload once untraced or, for a traced run, twice
// on half the window each: untraced first, then traced, so the
// per-layer run also reports its own overhead.
func execute(name string, run workloadFunc, cfg runConfig, traced bool, outDir string) (resultLine, error) {
	if !traced {
		res, err := run(cfg, nil)
		if err != nil {
			return resultLine{}, err
		}
		report(name, res)
		return line(res, res.headline, endToEndMetrics), nil
	}
	half := cfg
	half.window = cfg.window / 2
	base, err := run(half, nil)
	if err != nil {
		return resultLine{}, err
	}
	rec := newRecorder()
	res, err := run(half, rec)
	if err != nil {
		return resultLine{}, err
	}
	if b := base.headline["cpu_ms_per_pass"]; b > 0 {
		res.layers["trace.overhead_pct"] = 100 * (res.headline["cpu_ms_per_pass"] - b) / b
	}
	// The headline figures that are not end-to-end metrics are reported
	// here, from the untraced phase.
	for _, m := range layerMetrics {
		if v, ok := base.headline[m.name]; ok {
			res.layers[m.name] = v
		}
	}
	res.failures.Attempted += base.failures.Attempted
	res.failures.Missing += base.failures.Missing
	res.failures.Wrong += base.failures.Wrong
	res.failures.Err += base.failures.Err
	res.failures.Duplicate += base.failures.Duplicate
	res.invariant = append(res.invariant, base.invariant...)
	report(name, res)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", name, cfg.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return resultLine{}, err
	}
	if err := rec.write(path); err != nil {
		return resultLine{}, err
	}
	fmt.Println("spans written to", path)
	return line(res, res.layers, layerMetrics), nil
}

// line builds the JSON result from the listed metrics; a metric the
// workload did not measure reads 0.
func line(res *result, values map[string]float64, list []metricSpec) resultLine {
	out := resultLine{
		Correct:   res.failures.Failed() == 0 && len(res.invariant) == 0 && res.failures.Attempted > 0,
		Attempted: res.failures.Attempted,
		Failed:    res.failures.Failed(),
		Metrics:   map[string]metricOut{},
	}
	for _, m := range list {
		out.Metrics[m.name] = metricOut{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// report prints the human-readable summary that precedes the JSON
// line.
func report(name string, res *result) {
	fmt.Printf("workload %s\n", name)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	f := res.failures
	fmt.Printf("  passes: %d attempted, %d failed (%d missing, %d wrong bits, %d error events, %d decoded twice)\n",
		f.Attempted, f.Failed(), f.Missing, f.Wrong, f.Err, f.Duplicate)
	for _, inv := range res.invariant {
		fmt.Println("  counter not zero:", inv)
	}
	for _, m := range headlineMetrics {
		fmt.Printf("  %-16s %12.4f %s\n", m.name, res.headline[m.name], m.unit)
	}
	if len(res.layers) > 0 {
		names := make([]string, 0, len(res.layers))
		for n := range res.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  layer %-34s %14.4f\n", n, res.layers[n])
		}
	}
}
