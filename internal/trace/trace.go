// Package trace holds received-signal-strength time series and their
// metadata, with CSV round-tripping so traces can move between the
// simulator, the decoder CLI and offline analysis.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
	"strconv"
	"strings"

	"passivelight/internal/dsp"
)

// Trace is a uniformly sampled RSS series.
type Trace struct {
	// Fs is the sample rate in Hz.
	Fs float64
	// T0 is the absolute time of the first sample (s).
	T0 float64
	// Samples are RSS values (ADC counts after the front end, or lux
	// at the channel output — Meta records which).
	Samples []float64
	// Meta carries free-form key/value annotations (receiver type,
	// noise floor, experiment id...).
	Meta map[string]string
}

// New builds a trace, copying samples.
func New(fs, t0 float64, samples []float64) *Trace {
	s := make([]float64, len(samples))
	copy(s, samples)
	return Wrap(fs, t0, s)
}

// Wrap builds a trace over samples without copying them: the trace
// owns the slice from then on, or, for a read-only use, borrows it.
func Wrap(fs, t0 float64, samples []float64) *Trace {
	return &Trace{Fs: fs, T0: t0, Samples: samples, Meta: map[string]string{}}
}

// WithMeta sets a metadata key and returns the trace for chaining.
func (tr *Trace) WithMeta(key, value string) *Trace {
	if tr.Meta == nil {
		tr.Meta = map[string]string{}
	}
	tr.Meta[key] = value
	return tr
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Samples) }

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 {
	if tr.Fs <= 0 {
		return 0
	}
	return float64(len(tr.Samples)) / tr.Fs
}

// TimeAt returns the absolute time of sample i.
func (tr *Trace) TimeAt(i int) float64 { return tr.T0 + float64(i)/tr.Fs }

// Chunks yields consecutive sample slices of at most size samples,
// in stream order — the natural way to replay a recorded trace into
// a streaming decoder or over the receiver network. The slices alias
// the trace's backing array; do not mutate them.
func (tr *Trace) Chunks(size int) iter.Seq[[]float64] {
	if size <= 0 {
		size = len(tr.Samples)
	}
	return func(yield func([]float64) bool) {
		for lo := 0; lo < len(tr.Samples); lo += size {
			hi := lo + size
			if hi > len(tr.Samples) {
				hi = len(tr.Samples)
			}
			if !yield(tr.Samples[lo:hi]) {
				return
			}
		}
	}
}

// Stats summarizes the trace.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Stats computes summary statistics.
func (tr *Trace) Stats() Stats {
	lo, hi := dsp.MinMax(tr.Samples)
	return Stats{Min: lo, Max: hi, Mean: dsp.Mean(tr.Samples), Std: dsp.Std(tr.Samples)}
}

// WriteCSV emits the trace as CSV: comment header lines carrying
// metadata ("# key=value"), then "time,rss" rows.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# fs=%g\n# t0=%g\n", tr.Fs, tr.T0); err != nil {
		return err
	}
	// Sorted keys: Meta is a map, and a bit-identical trace should
	// serialize to a byte-identical CSV.
	keys := make([]string, 0, len(tr.Meta))
	for k := range tr.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := tr.Meta[k]
		if strings.ContainsAny(k, "=\n") || strings.Contains(v, "\n") {
			return fmt.Errorf("trace: metadata %q contains reserved characters", k)
		}
		if _, err := fmt.Fprintf(bw, "# %s=%s\n", k, v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "time,rss"); err != nil {
		return err
	}
	for i, s := range tr.Samples {
		if _, err := fmt.Fprintf(bw, "%.6f,%.6f\n", tr.TimeAt(i), s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Unknown comment keys
// land in Meta.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	tr := &Trace{Meta: map[string]string{}}
	sawHeader := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kv := strings.SplitN(strings.TrimSpace(strings.TrimPrefix(line, "#")), "=", 2)
			if len(kv) != 2 {
				continue
			}
			switch kv[0] {
			case "fs":
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					return nil, fmt.Errorf("trace: bad fs %q: %w", kv[1], err)
				}
				tr.Fs = v
			case "t0":
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					return nil, fmt.Errorf("trace: bad t0 %q: %w", kv[1], err)
				}
				tr.T0 = v
			default:
				tr.Meta[kv[0]] = kv[1]
			}
			continue
		}
		if !sawHeader && strings.HasPrefix(line, "time,") {
			sawHeader = true
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: malformed row %q", line)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad rss %q: %w", parts[1], err)
		}
		tr.Samples = append(tr.Samples, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tr.Fs <= 0 {
		return nil, errors.New("trace: missing or invalid fs header")
	}
	if len(tr.Samples) == 0 {
		return nil, errors.New("trace: no samples")
	}
	return tr, nil
}
