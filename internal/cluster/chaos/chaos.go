// Package chaos is the cluster's fault-injection harness: a net.Conn
// wrapper that drops, delays, duplicates, or severs traffic with
// configured probabilities, a TCP proxy for injecting
// faults between real processes, and a scripted schedule runner for
// kill/restart churn. It exists for tests — the churn tier drives the
// router/engine stack through the failures the self-healing paths
// claim to survive and asserts the loss stays counted, never silent.
package chaos

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is a fault mix. Probabilities are per Write call on a
// wrapped connection, rolled independently, so a single write can be
// delayed and duplicated. Zero values inject nothing.
type Faults struct {
	// Seed makes the fault sequence reproducible. Zero selects 1.
	Seed int64
	// DropProb black-holes the write: the caller sees success, the
	// peer sees nothing. The frame stream resumes mid-frame, so the
	// peer's next read typically fails the connection — exactly how a
	// lossy network kills a TCP session.
	DropProb float64
	// DelayProb stalls the write by Delay first.
	DelayProb float64
	Delay     time.Duration
	// DupProb writes the bytes twice.
	DupProb float64
	// SeverProb writes half the buffer and closes the connection —
	// the mid-frame cut that exercises truncated-frame handling.
	SeverProb float64
}

// Injector rolls faults and counts what it injected. Safe for
// concurrent use by any number of wrapped connections.
type Injector struct {
	f   Faults
	mu  sync.Mutex
	rng *rand.Rand

	Dropped    atomic.Int64
	Delayed    atomic.Int64
	Duplicated atomic.Int64
	Severed    atomic.Int64
}

// NewInjector builds an injector for the fault mix.
func NewInjector(f Faults) *Injector {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{f: f, rng: rand.New(rand.NewSource(seed))}
}

// Injected sums every fault the injector has applied.
func (in *Injector) Injected() int64 {
	return in.Dropped.Load() + in.Delayed.Load() + in.Duplicated.Load() + in.Severed.Load()
}

func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

// ErrSevered reports a write cut short by an injected sever.
var ErrSevered = errors.New("chaos: connection severed mid-write")

// Conn applies the injector's faults to writes. Reads pass through
// untouched — faulting one direction keeps tests deterministic about
// which peer observes the failure first.
type Conn struct {
	net.Conn
	in *Injector
}

// WrapConn wraps a connection with this injector's faults.
func (in *Injector) WrapConn(c net.Conn) *Conn { return &Conn{Conn: c, in: in} }

// Write implements net.Conn with fault injection.
func (c *Conn) Write(b []byte) (int, error) {
	in := c.in
	if in.roll(in.f.DelayProb) {
		in.Delayed.Add(1)
		time.Sleep(in.f.Delay)
	}
	if in.roll(in.f.DropProb) {
		in.Dropped.Add(1)
		return len(b), nil
	}
	if in.roll(in.f.SeverProb) {
		in.Severed.Add(1)
		n := 0
		if half := len(b) / 2; half > 0 {
			n, _ = c.Conn.Write(b[:half])
		}
		c.Conn.Close()
		return n, ErrSevered
	}
	if in.roll(in.f.DupProb) {
		in.Duplicated.Add(1)
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
	}
	return c.Conn.Write(b)
}

// Proxy is a faulty TCP hop between real processes: clients dial
// Addr, the proxy dials the target and pipes bytes both ways,
// injecting faults on the client-to-target direction. Sever cuts
// every active link at once — a network partition in one call.
type Proxy struct {
	ln     net.Listener
	target string
	in     *Injector

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy starts a proxy on an ephemeral loopback port in front of
// target ("host:port"). A nil injector passes traffic through clean.
func NewProxy(target string, in *Injector) (*Proxy, error) {
	if in == nil {
		in = NewInjector(Faults{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, in: in, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address, for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			upstream.Close()
			return
		}
		p.conns[client] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		faulty := p.in.WrapConn(upstream)
		p.wg.Add(2)
		go p.pipe(client, faulty, upstream)
		go p.pipe(upstream, client, client)
	}
}

// pipe copies src to dst until either side dies, then closes both
// raw conns (drop is the second raw end to untrack).
func (p *Proxy) pipe(src net.Conn, dst io.Writer, drop net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src) //nolint:errcheck // a faulted link dying is the point
	src.Close()
	drop.Close()
	p.mu.Lock()
	delete(p.conns, src)
	delete(p.conns, drop)
	p.mu.Unlock()
}

// Sever cuts every active proxied link (both directions) while the
// proxy keeps accepting new ones — a transient partition.
func (p *Proxy) Sever() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close stops the proxy and cuts every link.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.Sever()
	p.wg.Wait()
	return err
}

// Step is one scripted churn action.
type Step struct {
	// After is the wait before the step runs, measured from the
	// previous step (or Start).
	After time.Duration
	// Name labels the step in logs.
	Name string
	// Do performs the action (kill a process, sever a proxy, restart
	// an engine).
	Do func()
}

// Script runs kill/restart schedules against a live cluster.
type Script struct {
	// Logf receives step-by-step progress; nil silences it.
	Logf  func(format string, args ...any)
	Steps []Step
}

// Start launches the schedule in a goroutine and returns a wait
// function that blocks until every step has run (or stop closed).
func (s *Script) Start(stop <-chan struct{}) (wait func()) {
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, st := range s.Steps {
			select {
			case <-time.After(st.After):
			case <-stop:
				return
			}
			logf("chaos: step %d/%d: %s", i+1, len(s.Steps), st.Name)
			st.Do()
		}
	}()
	return func() { <-done }
}
