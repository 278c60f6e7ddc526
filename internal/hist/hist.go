// Package hist implements the coarse-grained tuple-delay histogram used by
// the Statistics Manager to approximate the delay pdf f_Di (Sec. IV-A).
//
// Delays are coarsened at the K-search granularity g: bucket 0 holds exactly
// the tuples with delay 0, and bucket d ≥ 1 holds delays in ((d−1)·g, d·g].
// The histogram supports incremental insertion and removal so it can track a
// sliding history whose length is dictated by ADWIN, and it can derive the
// shifted pdf f_{D^K} of Eq. (2) for any candidate buffer size K.
package hist

import (
	"slices"

	"repro/internal/stream"
)

// Histogram counts coarse-grained tuple delays.
type Histogram struct {
	g      stream.Time
	counts []int64
	total  int64
}

// New creates a histogram with granularity g > 0.
func New(g stream.Time) *Histogram {
	if g <= 0 {
		g = 1
	}
	return &Histogram{g: g}
}

// Granularity returns g.
func (h *Histogram) Granularity() stream.Time { return h.g }

// Bucket maps a raw delay to its coarse bucket index.
func (h *Histogram) Bucket(delay stream.Time) int {
	if delay <= 0 {
		return 0
	}
	return int((delay + h.g - 1) / h.g)
}

// Add records one tuple delay.
func (h *Histogram) Add(delay stream.Time) {
	b := h.Bucket(delay)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.total++
}

// Remove forgets one previously added delay. Removing a delay that was never
// added leaves the histogram unchanged.
func (h *Histogram) Remove(delay stream.Time) {
	b := h.Bucket(delay)
	if b >= len(h.counts) || h.counts[b] == 0 {
		return
	}
	h.counts[b]--
	h.total--
}

// Total returns the number of recorded delays.
func (h *Histogram) Total() int64 { return h.total }

// Reset drops every recorded delay, keeping the granularity. Restore paths
// rebuild the histogram from a serialized history through it.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.counts = h.counts[:0]
	h.total = 0
}

// MaxBucket returns the highest non-empty bucket index, or -1 when empty.
func (h *Histogram) MaxBucket() int {
	for b := len(h.counts) - 1; b >= 0; b-- {
		if h.counts[b] > 0 {
			return b
		}
	}
	return -1
}

// MaxDelay returns an upper bound of the maximum recorded delay (the top edge
// of the highest non-empty bucket), or 0 when empty.
func (h *Histogram) MaxDelay() stream.Time {
	b := h.MaxBucket()
	if b <= 0 {
		return 0
	}
	return stream.Time(b) * h.g
}

// P returns the empirical probability f_D(d) of coarse bucket d. An empty
// histogram is treated as "all delays are zero", the natural prior before
// any disorder has been observed.
func (h *Histogram) P(d int) float64 {
	if h.total == 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	if d < 0 || d >= len(h.counts) {
		return 0
	}
	return float64(h.counts[d]) / float64(h.total)
}

// CumulativeProbs writes the cumulative distribution into dst, reusing its
// capacity, and returns it: out[d] = Pr[D ≤ d] for d up to the highest
// non-empty bucket. An empty histogram returns dst[:0] (interpret as "all
// mass at zero"). The slice is a snapshot; later Add/Remove calls do not
// affect it. Model evaluation uses this to make CDF lookups O(1) inside the
// K search without allocating once dst has grown to the history's extent.
func (h *Histogram) CumulativeProbs(dst []float64) []float64 {
	if h.total == 0 {
		return dst[:0]
	}
	top := h.MaxBucket()
	out := slices.Grow(dst[:0], top+1)[:top+1]
	var cum int64
	for d := 0; d <= top; d++ {
		cum += h.counts[d]
		out[d] = float64(cum) / float64(h.total)
	}
	return out
}

// CDF returns Pr[D ≤ d] over coarse buckets.
func (h *Histogram) CDF(d int) float64 {
	if h.total == 0 {
		return 1
	}
	if d < 0 {
		return 0
	}
	var cum int64
	for b := 0; b <= d && b < len(h.counts); b++ {
		cum += h.counts[b]
	}
	return float64(cum) / float64(h.total)
}

// Shifted is the pdf f_{D^K} of Eq. (2): the delay distribution of the
// corresponding stream seen by the join operator after a K-slack buffer of
// size K and an implicit Synchronizer buffer of size Ksync have absorbed
// shift = (K + Ksync)/g coarse units of delay.
type Shifted struct {
	h     *Histogram
	shift int
}

// Shift derives f_{D^K} for the given total absorbed delay K + Ksync.
func (h *Histogram) Shift(absorbed stream.Time) Shifted {
	if absorbed < 0 {
		absorbed = 0
	}
	return Shifted{h: h, shift: int(absorbed / h.g)}
}

// P returns f_{D^K}(d) per Eq. (2).
func (s Shifted) P(d int) float64 {
	if d == 0 {
		return s.h.CDF(s.shift)
	}
	if d < 0 {
		return 0
	}
	return s.h.P(d + s.shift)
}

// CDF returns Pr[D^K ≤ d].
func (s Shifted) CDF(d int) float64 {
	if d < 0 {
		return 0
	}
	return s.h.CDF(d + s.shift)
}
