// Command benchdump runs the repository's benchmarks and writes the
// results as structured JSON, so every PR can commit a
// machine-readable performance baseline (BENCH_PR<n>.json) that later
// PRs diff against instead of eyeballing bench output in commit
// messages.
//
//	benchdump                          # all benchmarks -> bench.json
//	benchdump -out BENCH_PR3.json      # name the baseline
//	benchdump -bench 'Engine' -benchtime 10x -note "post-sharding"
//	benchdump -bench 'Engine' -pkg . -cpuprofile cpu.pprof
//
// Each run also diffs against the previous committed baseline
// (-prev, default auto = the highest-numbered BENCH_PR*.json other
// than -out) and stores per-benchmark deltas, so an alloc or
// throughput regression is visible in the dump itself.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"passivelight/internal/stream"
	"passivelight/internal/telemetry"
)

// Result is one parsed benchmark line.
type Result struct {
	Package string `json:"package"`
	Name    string `json:"name"`
	// GOMAXPROCS is set when the dump swept several values via the
	// -gomaxprocs flag; it is the setting this result ran under.
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units the schema has no
	// dedicated field for.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Latency is the detection-latency distribution reconstructed from
	// the engine benchmarks' lat-* metrics — the same HistogramSnapshot
	// schema the live /metrics.json endpoint serves, so committed
	// baselines diff directly against production telemetry.
	Latency *telemetry.HistogramSnapshot `json:"latency,omitempty"`
	// VsPrev is the delta against the same benchmark in the previous
	// baseline file (Dump.ComparedTo); absent when the benchmark is new
	// or no previous baseline was found.
	VsPrev *Compare `json:"vs_prev,omitempty"`
}

// Compare holds the previous baseline's numbers for one benchmark and
// the percentage deltas of this run against them (negative = this run
// is lower).
type Compare struct {
	NsPerOp        float64 `json:"ns_per_op,omitempty"`
	MBPerS         float64 `json:"mb_per_s,omitempty"`
	BytesPerOp     float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp    float64 `json:"allocs_per_op,omitempty"`
	NsDeltaPct     float64 `json:"ns_delta_pct,omitempty"`
	BytesDeltaPct  float64 `json:"bytes_delta_pct,omitempty"`
	AllocsDeltaPct float64 `json:"allocs_delta_pct,omitempty"`
}

// Dump is the file schema.
type Dump struct {
	GeneratedAt time.Time `json:"generated_at"`
	Note        string    `json:"note,omitempty"`
	GoVersion   string    `json:"go_version"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	CPU         string    `json:"cpu,omitempty"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"num_cpu"`
	// DefaultShards is what an auto-sharded engine resolves to under
	// this run's GOMAXPROCS — the sharding the EngineSessions*
	// benchmarks actually used.
	DefaultShards int      `json:"default_shards"`
	BenchTime     string   `json:"benchtime,omitempty"`
	ComparedTo    string   `json:"compared_to,omitempty"`
	Benchmarks    []Result `json:"benchmarks"`
}

func main() {
	var (
		out        = flag.String("out", "bench.json", "output JSON path")
		bench      = flag.String("bench", ".", "benchmark name pattern (go test -bench)")
		benchtime  = flag.String("benchtime", "", "per-benchmark time or count (go test -benchtime)")
		count      = flag.Int("count", 1, "runs per benchmark (go test -count)")
		pkgs       = flag.String("pkg", "./...", "packages to benchmark")
		note       = flag.String("note", "", "free-form note stored in the dump")
		prev       = flag.String("prev", "auto", "previous baseline to diff against: a path, 'auto' (highest BENCH_PR*.json), or 'none'")
		gomax      = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS sweep (e.g. '1,4,8'); each value reruns the suite and tags its results")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (go test -cpuprofile; requires -pkg naming a single package)")
		memprofile = flag.String("memprofile", "", "write an allocation profile (go test -memprofile; requires -pkg naming a single package)")
	)
	flag.Parse()

	if (*cpuprofile != "" || *memprofile != "") && strings.Contains(*pkgs, "...") {
		fmt.Fprintln(os.Stderr, "benchdump: -cpuprofile/-memprofile need a single package (go test restriction); pass e.g. -pkg .")
		os.Exit(2)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	if *cpuprofile != "" {
		args = append(args, "-cpuprofile", *cpuprofile)
	}
	if *memprofile != "" {
		args = append(args, "-memprofile", *memprofile)
	}
	args = append(args, *pkgs)

	// The GOMAXPROCS sweep reruns the same suite once per value, each
	// child pinned via the environment; 0 means "one run, inherit".
	sweep := []int{0}
	if *gomax != "" {
		sweep = sweep[:0]
		for _, s := range strings.Split(*gomax, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "benchdump: bad -gomaxprocs value %q\n", s)
				os.Exit(2)
			}
			sweep = append(sweep, v)
		}
	}

	dump := Dump{
		GeneratedAt:   time.Now().UTC(),
		Note:          *note,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		DefaultShards: stream.DefaultShards(),
		BenchTime:     *benchtime,
	}
	for _, procs := range sweep {
		cmd := exec.Command("go", args...)
		cmd.Env = os.Environ()
		if procs > 0 {
			cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
			fmt.Fprintln(os.Stderr, "benchdump: GOMAXPROCS="+strconv.Itoa(procs), "go", strings.Join(args, " "))
		} else {
			fmt.Fprintln(os.Stderr, "benchdump: go", strings.Join(args, " "))
		}
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "benchdump: go test:", err)
			os.Exit(1)
		}
		pkg := ""
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "pkg: ") {
				pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
				continue
			}
			if strings.HasPrefix(line, "cpu: ") && dump.CPU == "" {
				dump.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
				continue
			}
			if r, ok := parseBenchLine(line); ok {
				r.Package = pkg
				r.GOMAXPROCS = procs
				dump.Benchmarks = append(dump.Benchmarks, r)
			}
		}
	}
	if len(dump.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchdump: no benchmark lines parsed")
		os.Exit(1)
	}
	if prevPath := resolvePrev(*prev, *out); prevPath != "" {
		if err := diffAgainst(&dump, prevPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchdump: diff vs", prevPath+":", err)
		} else {
			fmt.Fprintf(os.Stderr, "benchdump: diffed against %s\n", prevPath)
		}
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdump: wrote %d benchmarks to %s\n", len(dump.Benchmarks), *out)
}

// resolvePrev picks the baseline file to diff against: an explicit
// path is used as-is, "none"/"" disables, and "auto" selects the
// highest-numbered BENCH_PR*.json in the working directory, skipping
// the file this run is about to write.
func resolvePrev(prev, out string) string {
	switch prev {
	case "", "none":
		return ""
	case "auto":
	default:
		return prev
	}
	matches, _ := filepath.Glob("BENCH_PR*.json")
	type cand struct {
		n    int
		path string
	}
	var cands []cand
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(out) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_PR"), ".json")
		n, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		cands = append(cands, cand{n, m})
	}
	if len(cands) == 0 {
		return ""
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
	return cands[0].path
}

// diffAgainst loads a previous Dump and attaches per-benchmark deltas
// to this run's results. Benchmarks are matched by package+name; a
// previous dump may hold several counts of the same benchmark (e.g.
// runs at different GOMAXPROCS) — the first occurrence wins, matching
// the file's run order.
func diffAgainst(dump *Dump, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Dump
	if err := json.Unmarshal(data, &old); err != nil {
		return err
	}
	byName := make(map[string]*Result, len(old.Benchmarks))
	for i := range old.Benchmarks {
		r := &old.Benchmarks[i]
		key := r.Package + "/" + r.Name
		if _, ok := byName[key]; !ok {
			byName[key] = r
		}
	}
	pct := func(now, was float64) float64 {
		if was == 0 {
			return 0
		}
		return 100 * (now - was) / was
	}
	matched := 0
	for i := range dump.Benchmarks {
		r := &dump.Benchmarks[i]
		o, ok := byName[r.Package+"/"+r.Name]
		if !ok {
			continue
		}
		matched++
		r.VsPrev = &Compare{
			NsPerOp:        o.NsPerOp,
			MBPerS:         o.MBPerS,
			BytesPerOp:     o.BytesPerOp,
			AllocsPerOp:    o.AllocsPerOp,
			NsDeltaPct:     pct(r.NsPerOp, o.NsPerOp),
			BytesDeltaPct:  pct(r.BytesPerOp, o.BytesPerOp),
			AllocsDeltaPct: pct(r.AllocsPerOp, o.AllocsPerOp),
		}
	}
	if matched == 0 {
		return fmt.Errorf("no benchmarks in common with %s", path)
	}
	dump.ComparedTo = filepath.Base(path)
	return nil
}

// parseBenchLine parses one `go test -bench` output line, e.g.
//
//	BenchmarkFoo-8   	 123	 456 ns/op	 7.89 MB/s	 100 B/op	 5 allocs/op
func parseBenchLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	r.foldLatency()
	return r, true
}

// latencyKeys are the lat-* custom metrics a complete
// HistogramSnapshot is folded from.
var latencyKeys = []string{"lat-count", "lat-sum-ns", "lat-min-ns", "lat-max-ns", "lat-p50-ns", "lat-p90-ns", "lat-p99-ns"}

// foldLatency lifts the engine benchmarks' lat-* custom metrics out of
// Extra into a HistogramSnapshot. It folds only a complete set with a
// positive count: a partial set stays in Extra as reported, so no
// snapshot field is ever a zero the benchmark did not measure.
func (r *Result) foldLatency() {
	for _, k := range latencyKeys {
		if _, ok := r.Extra[k]; !ok {
			return
		}
	}
	if r.Extra["lat-count"] <= 0 {
		return
	}
	r.Latency = &telemetry.HistogramSnapshot{
		Count: int64(r.Extra["lat-count"]),
		Sum:   int64(r.Extra["lat-sum-ns"]),
		Min:   int64(r.Extra["lat-min-ns"]),
		Max:   int64(r.Extra["lat-max-ns"]),
		P50:   r.Extra["lat-p50-ns"],
		P90:   r.Extra["lat-p90-ns"],
		P99:   r.Extra["lat-p99-ns"],
	}
	for _, k := range latencyKeys {
		delete(r.Extra, k)
	}
	if len(r.Extra) == 0 {
		r.Extra = nil
	}
}
