package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"xok/internal/sim"
)

// nBuckets covers every representable sim.Time: bucket i holds
// durations d with bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i).
// Bucket 0 holds exact zeros.
const nBuckets = 65

// Histogram is a fixed-bucket latency histogram over virtual-time
// durations. Buckets are powers of two in cycles (a ~2x resolution
// log scale from 5 ns to the full clock range); quantiles interpolate
// linearly inside a bucket and are clamped to the exact observed
// min/max, so p50/p90/p99 summaries are tight even with coarse
// buckets.
type Histogram struct {
	name     string
	counts   [nBuckets]int64
	n        int64
	sum      sim.Time
	min, max sim.Time
}

func newHistogram(name string) *Histogram { return &Histogram{name: name} }

// Observe adds one duration sample.
func (h *Histogram) Observe(d sim.Time) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
	h.counts[bits.Len64(uint64(d))]++
}

// merge folds src's samples into h (same bucket layout, exact n/sum;
// min/max stay exact too, which keeps quantile clamping tight).
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src.n == 0 {
		return
	}
	if h.n == 0 || src.min < h.min {
		h.min = src.min
	}
	if src.max > h.max {
		h.max = src.max
	}
	h.n += src.n
	h.sum += src.sum
	for i, c := range src.counts {
		h.counts[i] += c
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum reports the total of all samples.
func (h *Histogram) Sum() sim.Time { return h.sum }

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Mean reports the average sample.
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			est := sim.Time(float64(lo) + frac*float64(hi-lo))
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
		cum = next
	}
	return h.max
}

// bucketBounds returns bucket i's [lo, hi) duration range.
func bucketBounds(i int) (lo, hi sim.Time) {
	if i == 0 {
		return 0, 0
	}
	return sim.Time(1) << (i - 1), sim.Time(1) << i
}

// WriteHistReport renders every histogram (p50/p90/p99 summaries) and
// counter as aligned plain text, sorted by name.
func (t *Tracer) WriteHistReport(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "tracing disabled")
		return err
	}
	keys := append([]string(nil), t.histOrder...)
	sort.Strings(keys)
	if len(keys) > 0 {
		if _, err := fmt.Fprintf(w, "%-36s %10s %10s %10s %10s %10s %10s\n",
			"histogram", "count", "mean", "p50", "p90", "p99", "max"); err != nil {
			return err
		}
		for _, k := range keys {
			h := t.hists[k]
			if _, err := fmt.Fprintf(w, "%-36s %10d %10v %10v %10v %10v %10v\n",
				k, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.90),
				h.Quantile(0.99), h.Max()); err != nil {
				return err
			}
		}
	}
	ckeys := append([]string(nil), t.countOrder...)
	sort.Strings(ckeys)
	for _, k := range ckeys {
		if _, err := fmt.Fprintf(w, "%-36s %10d\n", k, t.counts[k]); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, "%-36s %10d (past %d-event buffer)\n",
			"dropped-events", t.dropped, MaxEvents); err != nil {
			return err
		}
	}
	return nil
}
