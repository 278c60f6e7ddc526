package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stream"
)

// latencyHist is a count-weighted histogram of logical result latencies in
// whole milliseconds, indexed by latency. It is allocated once per feed with
// room for the feed's whole timestamp range, so adding to it inside the
// timed region never allocates.
type latencyHist struct {
	n []int64
}

func newLatencyHist(limit stream.Time) *latencyHist {
	return &latencyHist{n: make([]int64, limit+1)}
}

func (h *latencyHist) reset() { clear(h.n) }

// add records w results of latency lat.
func (h *latencyHist) add(lat stream.Time, w int64) { h.n[lat] += w }

// quantile returns the count-weighted q-quantile of the histogram, read off
// the cumulative distribution linearly interpolated between adjacent
// observed latencies (the grouped-data quantile). Logical latencies sit on
// the feed's timestamp grid, so a nearest-rank quantile would jump from one
// grid point to the next; the interpolated one moves smoothly with the
// distribution. It returns 0 on an empty histogram.
func (h *latencyHist) quantile(q float64) float64 {
	return weightedQuantile(h.n, q)
}

// weightedQuantile returns the q-quantile of the distribution that puts
// weight w[i] on value i, interpolating the cumulative weight linearly
// between adjacent values of non-zero weight. The first such value covers
// all quantiles up to its own cumulative share.
func weightedQuantile(w []int64, q float64) float64 {
	var total int64
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		return 0
	}
	target := q * float64(total)
	prev, prevCum := -1, 0.0
	var cum int64
	for i, x := range w {
		if x == 0 {
			continue
		}
		cum += x
		if float64(cum) >= target {
			if prev < 0 {
				return float64(i)
			}
			return float64(prev) + float64(i-prev)*(target-prevCum)/(float64(cum)-prevCum)
		}
		prev, prevCum = i, float64(cum)
	}
	return float64(prev)
}

// fenwick is a binary indexed tree over logical milliseconds [lo, lo+len):
// point adds and prefix sums in O(log n) without allocating, which keeps the
// γ(P) bookkeeping inside the timed region cheap.
type fenwick struct {
	lo stream.Time
	t  []int64
}

func newFenwick(lo, hi stream.Time) *fenwick {
	return &fenwick{lo: lo, t: make([]int64, hi-lo+2)}
}

func (f *fenwick) reset() { clear(f.t) }

func (f *fenwick) add(ts stream.Time, n int64) {
	for i := int(ts-f.lo) + 1; i < len(f.t); i += i & -i {
		f.t[i] += n
	}
}

// upTo returns the total added at timestamps ≤ ts; ts may lie below the
// range but not above it.
func (f *fenwick) upTo(ts stream.Time) int64 {
	var s int64
	i := int(ts-f.lo) + 1
	for ; i > 0; i -= i & -i {
		s += f.t[i]
	}
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durationQuantile returns the nearest-rank q-quantile of ds in
// microseconds, or 0 when ds is empty; ds is sorted in place.
func durationQuantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	// The epsilon keeps a product such as 0.99·100 from rounding up a rank.
	rank := max(int(math.Ceil(q*float64(len(ds))-1e-9)), 1)
	return float64(ds[rank-1]) / float64(time.Microsecond)
}
