package main

import "testing"

// TestFoldLatency checks that a complete lat-* set folds into a
// HistogramSnapshot with every field filled, and that a partial or
// empty set is left in Extra instead of producing zero fields.
func TestFoldLatency(t *testing.T) {
	full := "BenchmarkEngineSessions128-2   3   4000000 ns/op   12.5 MB/s   " +
		"250000 lat-p50-ns   900000 lat-p90-ns   1200000 lat-p99-ns   " +
		"41000 lat-min-ns   1300000 lat-max-ns   97000000000 lat-sum-ns   384 lat-count   " +
		"1000 B/op   10 allocs/op"
	r, ok := parseBenchLine(full)
	if !ok {
		t.Fatal("complete line did not parse")
	}
	l := r.Latency
	if l == nil {
		t.Fatal("complete lat-* set did not fold")
	}
	if l.Count != 384 || l.Sum != 97000000000 || l.Min != 41000 || l.Max != 1300000 ||
		l.P50 != 250000 || l.P90 != 900000 || l.P99 != 1200000 {
		t.Fatalf("folded snapshot %+v", *l)
	}
	if r.Extra != nil {
		t.Fatalf("folded keys left in Extra: %v", r.Extra)
	}
	if r.NsPerOp != 4000000 || r.MBPerS != 12.5 || r.BytesPerOp != 1000 || r.AllocsPerOp != 10 {
		t.Fatalf("standard fields %+v", r)
	}

	partial := "BenchmarkEngineSessions128-2   3   4000000 ns/op   " +
		"250000 lat-p50-ns   900000 lat-p90-ns   1200000 lat-p99-ns   1300000 lat-max-ns   384 lat-count"
	r, ok = parseBenchLine(partial)
	if !ok {
		t.Fatal("partial line did not parse")
	}
	if r.Latency != nil {
		t.Fatalf("partial lat-* set folded into %+v", *r.Latency)
	}
	if len(r.Extra) != 5 || r.Extra["lat-count"] != 384 {
		t.Fatalf("partial set not kept in Extra: %v", r.Extra)
	}

	empty := "BenchmarkX   1   10 ns/op   0 lat-p50-ns   0 lat-p90-ns   0 lat-p99-ns   " +
		"0 lat-min-ns   0 lat-max-ns   0 lat-sum-ns   0 lat-count"
	if r, _ = parseBenchLine(empty); r.Latency != nil {
		t.Fatalf("zero-count set folded into %+v", *r.Latency)
	}
}
