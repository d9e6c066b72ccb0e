package rxnet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"
)

// Aggregator is the fusion server: it accepts receiver-node
// connections, collects detections and maintains object tracks. It
// does no decoding: nodes that ship raw samples stream them to a
// ChunkListener (a NetSource), and the decode pipeline behind it
// feeds its detections in through RegisterNode and Ingest.
type Aggregator struct {
	mu        sync.Mutex
	nodes     map[uint32]Hello
	pending   map[string][]Detection // keyed by payload bits
	tracks    []Track
	subs      []chan Track
	ln        net.Listener
	wg        sync.WaitGroup
	logf      func(format string, args ...any)
	trackGap  time.Duration
	closeOnce sync.Once
	closed    chan struct{}
}

// AggregatorOptions configures the server.
type AggregatorOptions struct {
	// TrackGap is the maximum time between detections of the same
	// payload for them to fuse into one track. Zero selects 10 s.
	TrackGap time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// NewAggregator builds an idle aggregator.
func NewAggregator(opt AggregatorOptions) *Aggregator {
	gap := opt.TrackGap
	if gap == 0 {
		gap = 10 * time.Second
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Aggregator{
		nodes:    make(map[uint32]Hello),
		pending:  make(map[string][]Detection),
		logf:     logf,
		trackGap: gap,
		closed:   make(chan struct{}),
	}
}

// Listen starts accepting connections on addr ("host:port"; empty
// port picks an ephemeral one). It returns the bound address.
func (a *Aggregator) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	a.wg.Add(1)
	go a.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (a *Aggregator) acceptLoop(ln net.Listener) {
	defer a.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-a.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			a.logf("rxnet: accept: %v", err)
			return
		}
		a.wg.Add(1)
		go a.serveConn(conn)
	}
}

func (a *Aggregator) serveConn(conn net.Conn) {
	defer a.wg.Done()
	defer conn.Close()
	var nodeID uint32
	fr := NewFrameReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
			return
		}
		t, body, err := fr.Next()
		if err != nil {
			select {
			case <-a.closed:
			default:
				a.logf("rxnet: node %d read: %v", nodeID, err)
			}
			return
		}
		switch t {
		case FrameHello:
			h, err := UnmarshalHello(body)
			if err != nil {
				a.logf("rxnet: bad hello: %v", err)
				return
			}
			nodeID = h.NodeID
			a.mu.Lock()
			a.nodes[h.NodeID] = h
			a.mu.Unlock()
			a.logf("rxnet: node %d (%s) at x=%.2f m joined", h.NodeID, h.Name, h.PosX)
		case FrameDetection:
			d, err := UnmarshalDetection(body)
			if err != nil {
				a.logf("rxnet: bad detection: %v", err)
				return
			}
			a.ingest(d)
			if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
				return
			}
			if err := WriteFrame(conn, FrameAck, MarshalAck(Ack{NodeID: d.NodeID, Seq: d.Seq})); err != nil {
				a.logf("rxnet: ack to node %d: %v", d.NodeID, err)
				return
			}
		default:
			a.logf("rxnet: unexpected frame type %d from node", t)
			return
		}
	}
}

// RegisterNode records a node's position/identity for track fusion
// without a network connection — for nodes that stream raw samples,
// whose registration arrives on a ChunkListener's Hello channel.
func (a *Aggregator) RegisterNode(h Hello) {
	a.mu.Lock()
	a.nodes[h.NodeID] = h
	a.mu.Unlock()
}

// Ingest feeds one detection straight into track fusion, bypassing
// the network path. A zero Time is stamped with the current time.
// Use together with RegisterNode to fuse the detections of a decode
// pipeline over a ChunkListener source.
func (a *Aggregator) Ingest(d Detection) {
	if d.Time.IsZero() {
		d.Time = time.Now()
	}
	a.ingest(d)
}

// ingest adds a detection and re-fuses the track for its payload.
func (a *Aggregator) ingest(d Detection) {
	key := BitsString(d.Bits)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending[key] = append(a.pending[key], d)
	dets := a.pending[key]
	// Drop detections older than the track gap relative to the newest.
	newest := dets[len(dets)-1].Time
	kept := dets[:0]
	for _, det := range dets {
		if newest.Sub(det.Time) <= a.trackGap {
			kept = append(kept, det)
		}
	}
	a.pending[key] = kept
	track, ok := a.fuseLocked(kept)
	if !ok {
		return
	}
	a.tracks = append(a.tracks, track)
	for _, sub := range a.subs {
		select {
		case sub <- track:
		default: // slow subscriber: drop rather than block ingestion
		}
	}
}

// fuseLocked fuses the detection set for one payload into a track.
// Requires at least two receivers at distinct positions to estimate
// speed; single-receiver sightings are not yet tracks.
func (a *Aggregator) fuseLocked(dets []Detection) (Track, bool) {
	if len(dets) < 2 {
		return Track{}, false
	}
	sorted := append([]Detection(nil), dets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })
	first, last := sorted[0], sorted[len(sorted)-1]
	nodeFirst, okF := a.nodes[first.NodeID]
	nodeLast, okL := a.nodes[last.NodeID]
	if !okF || !okL || first.NodeID == last.NodeID {
		return Track{}, false
	}
	dt := last.Time.Sub(first.Time).Seconds()
	if dt <= 0 {
		return Track{}, false
	}
	speed := (nodeLast.PosX - nodeFirst.PosX) / dt
	return Track{
		ObjectBits:    append([]byte(nil), first.Bits...),
		FirstNode:     first.NodeID,
		LastNode:      last.NodeID,
		SpeedMS:       speed,
		FirstSeen:     first.Time,
		LastSeen:      last.Time,
		Confirmations: len(sorted),
	}, true
}

// Subscribe returns a channel of fused tracks. The channel is closed
// when the aggregator shuts down.
func (a *Aggregator) Subscribe() <-chan Track {
	ch := make(chan Track, 16)
	a.mu.Lock()
	a.subs = append(a.subs, ch)
	a.mu.Unlock()
	return ch
}

// Tracks returns a snapshot of all fused tracks.
func (a *Aggregator) Tracks() []Track {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Track(nil), a.tracks...)
}

// Close stops the listener and waits for all handlers.
func (a *Aggregator) Close() error {
	var err error
	a.closeOnce.Do(func() {
		close(a.closed)
		a.mu.Lock()
		ln := a.ln
		a.mu.Unlock()
		if ln != nil {
			err = ln.Close()
		}
		a.wg.Wait()
		a.mu.Lock()
		subs := a.subs
		a.subs = nil
		a.mu.Unlock()
		for _, sub := range subs {
			close(sub)
		}
	})
	return err
}

// Publisher is a receiver-side client that decodes locally and
// publishes its detections to an Aggregator. Nodes that ship raw
// samples for server-side decoding use DialReliable instead.
type Publisher struct {
	hello Hello
	conn  net.Conn
	mu    sync.Mutex
	seq   uint32
}

// Dial connects a publisher to the aggregator and sends its Hello.
func Dial(ctx context.Context, addr string, hello Hello) (*Publisher, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	body, err := MarshalHello(hello)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := WriteFrame(conn, FrameHello, body); err != nil {
		conn.Close()
		return nil, err
	}
	return &Publisher{hello: hello, conn: conn}, nil
}

// Publish sends a detection and waits for the ack.
func (p *Publisher) Publish(d Detection) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	d.NodeID = p.hello.NodeID
	d.Seq = p.seq
	body, err := MarshalDetection(d)
	if err != nil {
		return err
	}
	if err := p.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if err := WriteFrame(p.conn, FrameDetection, body); err != nil {
		return err
	}
	if err := p.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	t, ackBody, err := ReadFrame(p.conn)
	if err != nil {
		return err
	}
	if t != FrameAck {
		return fmt.Errorf("rxnet: expected ack, got frame type %d", t)
	}
	ack, err := UnmarshalAck(ackBody)
	if err != nil {
		return err
	}
	if ack.NodeID != d.NodeID || ack.Seq != d.Seq {
		return fmt.Errorf("rxnet: ack mismatch: got node=%d seq=%d want node=%d seq=%d",
			ack.NodeID, ack.Seq, d.NodeID, d.Seq)
	}
	return nil
}

// Close closes the publisher's connection.
func (p *Publisher) Close() error { return p.conn.Close() }

// StdLogf adapts the standard logger for AggregatorOptions.Logf.
func StdLogf(format string, args ...any) { log.Printf(format, args...) }
