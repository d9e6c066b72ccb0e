package main

import (
	"runtime"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 50},   // p50 leaves 10 above it; nothing higher does
		{50, 80},   // p80 leaves 10
		{100, 90},  // p90 leaves 10, p95 only 5
		{200, 95},  // p95 leaves 10
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			// Reverse order: tailOf must sort.
			samples[i] = float64(tc.n - i)
		}
		got, ok := tailOf(samples)
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if got.Percentile != tc.want {
			t.Errorf("n=%d: tail at p%g, want p%g", tc.n, got.Percentile, tc.want)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond, want >= %d", tc.n, got.Percentile, got.Beyond, minBeyond)
		}
		// The reported value is the sample at that rank, and exactly
		// Beyond samples exceed it.
		above := 0
		for _, v := range samples {
			if v > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above %g, reported %d", tc.n, above, got.Value, got.Beyond)
		}
	}
	if _, ok := tailOf(make([]float64, 19)); ok {
		t.Error("19 samples cannot support any percentile with 10 beyond")
	}
}

func TestOpenLoopLatencyCountsGeneratorStall(t *testing.T) {
	// Twenty passes, one started every 10 ms, each completing on its
	// third chunk; the system answers 1 ms after a chunk is sent, and a
	// send takes 2 ms. The generator stalls for 50 ms at pass 5, then
	// sends as fast as it can until it is back on schedule.
	sched := pacedSchedule{chunkDur: 10 * time.Millisecond}
	for i := 0; i < 20; i++ {
		sched.start = append(sched.start, time.Duration(i)*10*time.Millisecond)
	}
	origin := time.Unix(0, 0)
	completing := make([]int, 20)
	done := make([]time.Time, 20)
	var free time.Duration // when the generator can send next
	for i := range sched.start {
		completing[i] = 2
		at := sched.dueAt(i, 2)
		if i == 5 {
			free = at + 50*time.Millisecond
		}
		sent := max(at, free)
		free = sent + 2*time.Millisecond
		done[i] = origin.Add(sent + time.Millisecond)
	}
	lat := pacedLatencies(sched, origin, completing, done)
	if len(lat) != 20 {
		t.Fatalf("got %d latencies", len(lat))
	}
	for i := 0; i < 5; i++ {
		if lat[i] != 1 {
			t.Errorf("pass %d before the stall: %g ms, want 1", i, lat[i])
		}
	}
	if lat[5] != 51 {
		t.Errorf("stalled pass: %g ms, want 51", lat[5])
	}
	// Timing from the actual send would read 1 ms for every pass and
	// hide the stall; timing from due shows it on each pass the
	// backlog delayed.
	if !(lat[6] > 1 && lat[6] < lat[5]) {
		t.Errorf("pass after the stall: %g ms, want between 1 and %g", lat[6], lat[5])
	}
	if lat[19] != 1 {
		t.Errorf("last pass, back on schedule: %g ms, want 1", lat[19])
	}
	// A pass that never completed, or has no completing chunk, gives no
	// sample.
	done[3] = time.Time{}
	completing[4] = -1
	if got := len(pacedLatencies(sched, origin, completing, done)); got != 18 {
		t.Errorf("%d samples with two unusable passes, want 18", got)
	}
}

func TestPacedScheduleKeepsFanout(t *testing.T) {
	// Passes of 3 to 9 chunks; each session holds its slot until its
	// last chunk is due, so no more than pacedFanout overlap, every slot
	// stays busy while the window is open, and no session starts after
	// it closes.
	var pool []fleetPass
	for i := 0; i < 7; i++ {
		pool = append(pool, fleetPass{samples: make([]float64, (3+i)*pacedChunk-i)})
	}
	chunk, window := 100*time.Millisecond, 5*time.Second
	s := newPacedSchedule(3, pool, window, chunk)
	end := func(i int) time.Duration {
		return s.start[i] + time.Duration(pool[i%len(pool)].chunks(pacedChunk))*chunk
	}
	if len(s.start) <= pacedFanout {
		t.Fatalf("%d sessions in a %s window", len(s.start), window)
	}
	for i, st := range s.start {
		if st >= window {
			t.Errorf("session %d starts at %s, after the window", i, st)
		}
		if i > 0 && st < s.start[i-1] {
			t.Errorf("session %d starts before session %d", i, i-1)
		}
		live := 0
		for j := range s.start {
			if s.start[j] <= st && st < end(j) {
				live++
			}
		}
		if live > pacedFanout || (i >= pacedFanout && live != pacedFanout) {
			t.Errorf("%d sessions live when session %d starts, want %d", live, i, pacedFanout)
		}
	}
	if again := newPacedSchedule(3, pool, window, chunk); len(again.start) != len(s.start) || again.start[5] != s.start[5] {
		t.Error("the same seed gave a different schedule")
	}
}

var retained [][]byte

func TestHeapDeltaExcludesInputs(t *testing.T) {
	// Inputs made before the baseline do not count; state allocated
	// and kept after it does.
	input := make([]byte, 32<<20)
	var h heapProbe
	h.setBaseline()
	retained = append(retained, make([]byte, 8<<20))
	got := h.deltaMB()
	if got < 7.5 || got > 9 {
		t.Errorf("delta %.2f MB after retaining 8 MB past the baseline (32 MB of input before it)", got)
	}
	runtime.KeepAlive(input)
	retained = nil
	if got := heapDeltaMB(100<<20, 90<<20); got != -10 {
		t.Errorf("heapDeltaMB = %g, want -10", got)
	}
}

func TestClassifyPass(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []outcome
		want int
	}{
		{"decoded once", []outcome{{Bits: "10"}}, passOK},
		{"missing", nil, passMissing},
		{"wrong bits", []outcome{{Bits: "01"}}, passWrong},
		{"error event", []outcome{{Err: true}}, passErr},
		{"error after a decode", []outcome{{Bits: "10"}, {Err: true}}, passErr},
		{"decoded twice", []outcome{{Bits: "10"}, {Bits: "10"}}, passDuplicate},
	} {
		if got := classifyPass("10", tc.got); got != tc.want {
			t.Errorf("%s: class %d, want %d", tc.name, got, tc.want)
		}
	}
	var f failureCounts
	for _, c := range []int{passOK, passOK, passMissing, passWrong, passErr, passDuplicate} {
		f.add(c)
	}
	if f.Attempted != 6 || f.Failed() != 4 || f.Missing != 1 || f.Wrong != 1 || f.Err != 1 || f.Duplicate != 1 {
		t.Errorf("counts %+v", f)
	}
}

func TestFoldSelfTime(t *testing.T) {
	spans := []span{
		{name: "pass", start: 0, end: 100, parent: -1},
		{name: "render", start: 10, end: 40, parent: 0},
		{name: "decode", start: 50, end: 90, parent: 0},
		{name: "pass", start: 100, end: 150, parent: -1},
		{name: "render", start: 100, end: 120, parent: 3},
	}
	got := foldSpans(spans)
	if got["pass"].Self != 60 || got["pass"].Count != 2 {
		t.Errorf("pass self %v over %d spans, want 60 over 2", got["pass"].Self, got["pass"].Count)
	}
	if got["render"].Self != 50 || got["decode"].Self != 40 {
		t.Errorf("render %v decode %v, want 50 and 40", got["render"].Self, got["decode"].Self)
	}
}
