package rxnet

import (
	"context"
	"testing"
	"time"
)

func startAggregator(t *testing.T, opt AggregatorOptions) (*Aggregator, string) {
	t.Helper()
	agg := NewAggregator(opt)
	addr, err := agg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	return agg, addr
}

func dialPublisher(t *testing.T, addr string, hello Hello) *Publisher {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := Dial(ctx, addr, hello)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestNodeRegistersAndPublishes(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{})
	node := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Height: 0.75, Name: "pole-1"})
	det := Detection{Time: time.Now(), Bits: []byte{1, 0}, RSSPeak: 100, NoiseFloor: 450, SymbolRate: 50}
	if err := node.Publish(det); err != nil {
		t.Fatal(err)
	}
	// Publish assigns sequence numbers.
	if err := node.Publish(det); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		agg.mu.Lock()
		h, ok := agg.nodes[1]
		n := len(agg.nodes)
		agg.mu.Unlock()
		if ok && n == 1 && h.Name == "pole-1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node not registered: %d nodes, node 1 %+v", n, h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTrackFusionAcrossNodes(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{TrackGap: time.Hour})
	base := time.Now()
	// Two poles 30 m apart; the object passes them 6 s apart -> 5 m/s.
	n1 := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Name: "p1"})
	if err := n1.Publish(Detection{Time: base, Bits: []byte{1, 1}}); err != nil {
		t.Fatal(err)
	}
	n2 := dialPublisher(t, addr, Hello{NodeID: 2, PosX: 30, Name: "p2"})
	if err := n2.Publish(Detection{Time: base.Add(6 * time.Second), Bits: []byte{1, 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var tracks []Track
	for {
		tracks = agg.Tracks()
		if len(tracks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no track fused")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr := tracks[len(tracks)-1]
	if tr.SpeedMS < 4.9 || tr.SpeedMS > 5.1 {
		t.Fatalf("fused speed %v, want ~5", tr.SpeedMS)
	}
	if tr.FirstNode != 1 || tr.LastNode != 2 {
		t.Fatalf("node order %d -> %d", tr.FirstNode, tr.LastNode)
	}
	if tr.Confirmations != 2 {
		t.Fatalf("confirmations %d", tr.Confirmations)
	}
	if BitsString(tr.ObjectBits) != "11" {
		t.Fatalf("object bits %s", BitsString(tr.ObjectBits))
	}
}

func TestNoTrackFromSingleNode(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{})
	n := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Name: "p1"})
	for i := 0; i < 3; i++ {
		if err := n.Publish(Detection{Time: time.Now(), Bits: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if tracks := agg.Tracks(); len(tracks) != 0 {
		t.Fatalf("single receiver fused a track: %+v", tracks)
	}
}

func TestDifferentPayloadsDoNotFuse(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{TrackGap: time.Hour})
	base := time.Now()
	n1 := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Name: "p1"})
	if err := n1.Publish(Detection{Time: base, Bits: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	n2 := dialPublisher(t, addr, Hello{NodeID: 2, PosX: 30, Name: "p2"})
	if err := n2.Publish(Detection{Time: base.Add(time.Second), Bits: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if tracks := agg.Tracks(); len(tracks) != 0 {
		t.Fatalf("different payloads fused: %+v", tracks)
	}
}

func TestSubscribeReceivesTracks(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{TrackGap: time.Hour})
	sub := agg.Subscribe()
	base := time.Now()
	n1 := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Name: "p1"})
	if err := n1.Publish(Detection{Time: base, Bits: []byte{1, 0}}); err != nil {
		t.Fatal(err)
	}
	n2 := dialPublisher(t, addr, Hello{NodeID: 2, PosX: 10, Name: "p2"})
	if err := n2.Publish(Detection{Time: base.Add(2 * time.Second), Bits: []byte{1, 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case tr := <-sub:
		if BitsString(tr.ObjectBits) != "10" {
			t.Fatalf("subscribed track bits %s", BitsString(tr.ObjectBits))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no track delivered to subscriber")
	}
}

func TestTrackGapDropsStaleDetections(t *testing.T) {
	agg, addr := startAggregator(t, AggregatorOptions{TrackGap: time.Second})
	base := time.Now()
	n1 := dialPublisher(t, addr, Hello{NodeID: 1, PosX: 0, Name: "p1"})
	if err := n1.Publish(Detection{Time: base.Add(-time.Hour), Bits: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	n2 := dialPublisher(t, addr, Hello{NodeID: 2, PosX: 10, Name: "p2"})
	if err := n2.Publish(Detection{Time: base, Bits: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if tracks := agg.Tracks(); len(tracks) != 0 {
		t.Fatalf("stale detection fused: %+v", tracks)
	}
}

func TestAggregatorCloseIdempotent(t *testing.T) {
	agg, _ := startAggregator(t, AggregatorOptions{})
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agg.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

func TestDialFailsWithoutServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1", Hello{NodeID: 1}); err == nil {
		t.Fatal("expected connection failure")
	}
}

// TestAggregatorClosesConnOnSampleFrames checks the aggregator, which
// only fuses detections, closes a connection that streams raw samples
// instead of silently eating them.
func TestAggregatorClosesConnOnSampleFrames(t *testing.T) {
	_, addr := startAggregator(t, AggregatorOptions{})
	node := dialPublisher(t, addr, Hello{NodeID: 1, Name: "pole"})
	chunk := MarshalOrDie(t, SampleChunk{NodeID: 1, Seq: 1, Fs: 1000, Samples: []float64{1, 2, 3}})
	if err := WriteFrame(node.conn, FrameSampleChunk, chunk); err != nil {
		// The write itself may or may not fail depending on timing;
		// the server closing the connection is the contract.
		t.Logf("stream chunk write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The server must eventually drop the connection: publishing
		// a detection then fails.
		err := node.Publish(Detection{Time: time.Now(), Bits: []byte{1, 0}})
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregator kept a connection that sent sample frames")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
