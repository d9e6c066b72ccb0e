package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestChunks(t *testing.T) {
	tr := New(1000, 0, []float64{0, 1, 2, 3, 4, 5, 6})
	var got [][]float64
	for c := range tr.Chunks(3) {
		got = append(got, c)
	}
	if len(got) != 3 || len(got[0]) != 3 || len(got[1]) != 3 || len(got[2]) != 1 {
		t.Fatalf("chunk shapes %v", got)
	}
	if got[2][0] != 6 {
		t.Fatalf("last chunk %v", got[2])
	}
	// Non-positive size yields the whole trace at once.
	n := 0
	for c := range tr.Chunks(0) {
		n++
		if len(c) != tr.Len() {
			t.Fatalf("size 0 chunk has %d samples", len(c))
		}
	}
	if n != 1 {
		t.Fatalf("size 0 yielded %d chunks", n)
	}
}

func TestNewCopiesSamples(t *testing.T) {
	src := []float64{1, 2, 3}
	tr := New(1000, 0, src)
	src[0] = 99
	if tr.Samples[0] != 1 {
		t.Fatal("New aliased the input slice")
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
	}
	if tr.Duration() != 0.003 {
		t.Fatalf("duration %v", tr.Duration())
	}
}

func TestTimeIndexConversions(t *testing.T) {
	tr := New(100, 2.0, make([]float64, 500))
	if got := tr.TimeAt(100); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("TimeAt %v", got)
	}
	if got := tr.TimeAt(0); got != 2.0 {
		t.Fatalf("TimeAt(0) %v, want T0", got)
	}
}

func TestStats(t *testing.T) {
	tr := New(10, 0, []float64{1, 3, 5})
	st := tr.Stats()
	if st.Min != 1 || st.Max != 5 || st.Mean != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := New(2000, 1.5, []float64{10.25, 11, 9.75})
	tr.WithMeta("receiver", "rx-led")
	tr.WithMeta("experiment", "fig15")
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fs != 2000 || got.T0 != 1.5 {
		t.Fatalf("fs=%v t0=%v", got.Fs, got.T0)
	}
	if got.Len() != 3 {
		t.Fatalf("len %d", got.Len())
	}
	for i := range tr.Samples {
		if math.Abs(got.Samples[i]-tr.Samples[i]) > 1e-6 {
			t.Fatalf("sample %d: %v vs %v", i, got.Samples[i], tr.Samples[i])
		}
	}
	if got.Meta["receiver"] != "rx-led" || got.Meta["experiment"] != "fig15" {
		t.Fatalf("metadata %+v", got.Meta)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing fs": "time,rss\n0,1\n",
		"no samples": "# fs=100\ntime,rss\n",
		"bad rss":    "# fs=100\ntime,rss\n0,abc\n",
		"bad row":    "# fs=100\ntime,rss\n0,1,2\n",
		"bad fs":     "# fs=abc\ntime,rss\n0,1\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteCSVRejectsReservedMetadata(t *testing.T) {
	tr := New(100, 0, []float64{1})
	tr.WithMeta("bad=key", "v")
	if err := tr.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("metadata with '=' in key should fail")
	}
	tr2 := New(100, 0, []float64{1})
	tr2.WithMeta("k", "line1\nline2")
	if err := tr2.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("metadata with newline should fail")
	}
}

func TestReadCSVIgnoresUnknownCommentsAndBlanks(t *testing.T) {
	in := "# fs=100\n# t0=0\n\n# weird comment without equals\ntime,rss\n0,1\n0.01,2\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len %d", tr.Len())
	}
}
