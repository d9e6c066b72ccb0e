package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system: a name,
// start and end in nanoseconds since the recorder's epoch, the index
// of the span that caused it within the same buffer (-1 for a root),
// and the id of the pass it worked on (-1 when it served no single
// pass).
type span struct {
	name       string
	start, end int64
	parent     int32
	pass       int64
}

// recorder collects spans from the benchmark's own goroutines. Each
// goroutine records into its own spanBuf, so recording takes no lock;
// the buffers are folded and written out once the run has ended. A
// nil recorder (tracing off) hands out nil buffers, whose methods do
// nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// buf returns a fresh buffer owned by one goroutine.
func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{epoch: r.epoch, spans: make([]span, 0, 1<<12)}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, parent int32, pass int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, pass: pass})
	return int32(len(b.spans) - 1)
}

// end closes the span begin returned.
func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// add records an already measured interval.
func (b *spanBuf) add(name string, start, end time.Time, pass int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{name: name, start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)), parent: -1, pass: pass})
}

// layerTime is one span name's folded self time.
type layerTime struct {
	Self  time.Duration
	Count int
}

// fold computes every span's self time, its duration minus the part
// covered by its children, and sums it per span name.
func (r *recorder) fold() map[string]layerTime {
	out := map[string]layerTime{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bufs {
		for name, lt := range foldSpans(b.spans) {
			acc := out[name]
			acc.Self += lt.Self
			acc.Count += lt.Count
			out[name] = acc
		}
	}
	return out
}

// foldSpans is fold over one buffer. Children are recorded after their
// parent and close before it, so subtracting each child's duration
// from its parent gives the parent's self time.
func foldSpans(spans []span) map[string]layerTime {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.name]
		lt.Self += time.Duration(self[i])
		lt.Count++
		out[s.name] = lt
	}
	return out
}

// write dumps every span as CSV (buffer, index, name, start_ns,
// end_ns, parent, pass) in recording order; parent is the index of
// the causing span within the same buffer.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buffer,index,name,start_ns,end_ns,parent,pass")
	r.mu.Lock()
	for bi, b := range r.bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", bi, i, s.name, s.start, s.end, s.parent, s.pass)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
