package adapt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/profiler"
	"repro/internal/stream"
)

// refEvaluator is the term-by-term evaluation of Eq. 3–5 that the strided
// prefix sums replace: every candidate K walks all ⌈W_j/b⌉ basic windows of
// every input. The production evaluator is checked against it.
type refEvaluator struct {
	cfg     Config
	windows []stream.Time
	cum     [][]float64
	ksync   []stream.Time
	den     float64
}

func newRefEvaluator(m *Model) *refEvaluator {
	n := len(m.windows)
	ev := &refEvaluator{cfg: m.cfg, windows: m.windows, cum: make([][]float64, n), ksync: make([]stream.Time, n)}
	for i := 0; i < n; i++ {
		ev.cum[i] = m.stats.CDF(i, nil)
		ev.ksync[i] = m.stats.KSync(i)
	}
	for i := 0; i < n; i++ {
		p := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				p *= float64(m.windows[j])
			}
		}
		ev.den += p
	}
	return ev
}

func (ev *refEvaluator) cdf(i, d int) float64 {
	if d < 0 {
		return 0
	}
	c := ev.cum[i]
	if len(c) == 0 || d >= len(c) {
		return 1
	}
	return c[d]
}

func (ev *refEvaluator) recall(k stream.Time, snap *profiler.Snapshot) float64 {
	n := len(ev.windows)
	effW := make([]float64, n)
	fdk0 := make([]float64, n)
	for i := 0; i < n; i++ {
		shift := int((k + ev.ksync[i]) / ev.cfg.G)
		fdk0[i] = ev.cdf(i, shift)
		effW[i] = ev.effectiveWindow(i, shift)
	}
	var num float64
	for i := 0; i < n; i++ {
		pn := fdk0[i]
		for j := 0; j < n; j++ {
			if j != i {
				pn *= effW[j]
			}
		}
		num += pn
	}
	if ev.den == 0 {
		return 1
	}
	gamma := num / ev.den
	if ev.cfg.Strategy == NonEqSel && snap != nil {
		gamma *= snap.SelRatio(k)
	}
	if gamma > 1 {
		gamma = 1
	}
	if math.IsNaN(gamma) || gamma < 0 {
		gamma = 0
	}
	return gamma
}

func (ev *refEvaluator) effectiveWindow(j, shift int) float64 {
	w := ev.windows[j]
	b := ev.cfg.B
	if b > w {
		b = w
	}
	n := int((w + b - 1) / b)
	var sum float64
	for l := 1; l <= n; l++ {
		width := b
		if l == n {
			width = w - stream.Time(n-1)*b
		}
		d := int(stream.Time(l-1) * b / ev.cfg.G)
		sum += float64(width) * ev.cdf(j, shift+d)
	}
	return sum
}

// fakeSource serves fixed per-input CDFs and Synchronizer estimates.
type fakeSource struct {
	cdfs  [][]float64
	ksync []stream.Time
	maxD  stream.Time
}

func (f *fakeSource) CDF(i int, dst []float64) []float64 { return append(dst[:0], f.cdfs[i]...) }
func (f *fakeSource) KSync(i int) stream.Time            { return f.ksync[i] }
func (f *fakeSource) MaxDelayRecent() stream.Time        { return f.maxD }

// randomCDF draws one of the shapes the differential covers: no delays
// (nil and empty), a single bucket, a long power-law tail (sometimes with
// no punctual tuples, so early buckets are tiny), and a short uniform one.
// Values are count ratios, as a histogram produces them.
func randomCDF(rng *rand.Rand, maxLen int) []float64 {
	var counts []int64
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	case 2:
		counts = []int64{1 + rng.Int63n(50)}
	case 3:
		counts = make([]int64, 2+rng.Intn(maxLen-1))
		for d := range counts {
			counts[d] = rng.Int63n(1 + 2000/int64(d+1))
		}
		if rng.Intn(3) == 0 {
			counts[0] = 0
		}
	default:
		counts = make([]int64, 2+rng.Intn(20))
		for d := range counts {
			counts[d] = rng.Int63n(10)
		}
	}
	counts[len(counts)-1]++ // the top bucket is non-empty
	var total, cum int64
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	for d, c := range counts {
		cum += c
		out[d] = float64(cum) / float64(total)
	}
	return out
}

// eq3Ratios are the b/g settings the differential sweeps: the paper default
// b = g, b a multiple of g, b/g not an integer, and the Fig. 10 g sweep
// (g = 10b, 100b).
var eq3Ratios = []struct{ b, g stream.Time }{
	{10, 10}, {30, 10}, {15, 10}, {10, 100}, {10, 1000}, {7, 3},
}

// randomWindow draws W < b, a multiple of b, or a non-multiple of b, with at
// most maxWin basic windows.
func randomWindow(rng *rand.Rand, b stream.Time, maxWin int) stream.Time {
	switch rng.Intn(3) {
	case 0:
		if b > 1 {
			return 1 + stream.Time(rng.Int63n(int64(b-1)))
		}
		return b
	case 1:
		return b * stream.Time(1+rng.Intn(maxWin))
	default:
		return b*stream.Time(rng.Intn(maxWin)) + 1 + stream.Time(rng.Int63n(int64(b)))
	}
}

// randomModel builds a model over m random inputs at one b/g setting. The
// Synchronizer estimates and MaxD^H reach past the CDFs' ends.
func randomModel(rng *rand.Rand, m int, b, g stream.Time, maxLen, maxWin int) (*Model, *fakeSource) {
	src := &fakeSource{}
	windows := make([]stream.Time, m)
	var extent stream.Time
	for i := 0; i < m; i++ {
		c := randomCDF(rng, maxLen)
		src.cdfs = append(src.cdfs, c)
		extent = max(extent, stream.Time(len(c))*g)
		windows[i] = randomWindow(rng, b, maxWin)
	}
	for i := 0; i < m; i++ {
		var ks stream.Time
		if rng.Intn(2) == 0 {
			ks = stream.Time(rng.Int63n(int64(2*extent + g)))
		}
		src.ksync = append(src.ksync, ks)
	}
	src.maxD = extent + stream.Time(rng.Int63n(int64(extent+g)))
	return NewModel(Config{B: b, G: g}, windows, src, nil), src
}

func randomSnapshot(rng *rand.Rand, g, maxD stream.Time) *profiler.Snapshot {
	p := profiler.New(g)
	for i := 0; i < 200; i++ {
		d := stream.Time(rng.Int63n(int64(maxD + 1)))
		p.RecordInOrder(d, 1+rng.Int63n(50), rng.Int63n(20))
	}
	return p.Snapshot()
}

// TestEffectiveWindowMatchesReference: the strided-prefix Eq. 3 equals the
// term-by-term sum within 1e-9 relative, on every input, for shifts from
// below 0 (a negative K) to past the CDF's end (plus the inputs' own
// K^sync), at every b/g ratio.
func TestEffectiveWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := eq3Ratios[trial%len(eq3Ratios)]
		m, src := randomModel(rng, 1+rng.Intn(4), r.b, r.g, 3000, 2000)
		ref := newRefEvaluator(m)
		m.ev.load()
		for j := range m.windows {
			span := len(src.cdfs[j]) + int(m.windows[j]/r.g) + 2
			top := max(len(src.cdfs[j])-1, 0)
			shifts := []int{-1 - rng.Intn(span), 0, int(src.ksync[j] / r.g), top, len(src.cdfs[j]), span}
			for s := 0; s < 30; s++ {
				shifts = append(shifts, rng.Intn(span+1))
			}
			for _, shift := range shifts {
				got, want := m.ev.effectiveWindow(j, shift), ref.effectiveWindow(j, shift)
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Fatalf("trial %d b=%d g=%d W=%d |cdf|=%d shift=%d: Eq. 3 = %v, reference %v",
						trial, r.b, r.g, m.windows[j], len(src.cdfs[j]), shift, got, want)
				}
				// From the top bucket on, every term is exactly 1, so γ = 1
				// ties (Γ′ clamped to 1) resolve as the term-by-term sum does.
				if shift >= top && got != float64(m.windows[j]) {
					t.Fatalf("trial %d b=%d g=%d shift=%d ≥ top %d: Eq. 3 = %v, want exactly W = %d",
						trial, r.b, r.g, shift, top, got, m.windows[j])
				}
			}
		}
		for s := 0; s < 10; s++ {
			k := stream.Time(rng.Int63n(int64(src.maxD + r.g)))
			got, want := m.EstimateRecall(k, nil), ref.recall(k, nil)
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("trial %d K=%d: γ = %v, reference %v", trial, k, got, want)
			}
		}
	}
}

// TestDecideMatchesReference: Decide picks the identical k* as the Alg. 3
// search over the reference evaluator, under linear and binary search,
// EqSel and NonEqSel (with a snapshot), and random Γ′: uniform, the exact
// ties 0 and 1, and midway between the reference recalls of two adjacent
// candidates, which forces a positive k*.
func TestDecideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	positive := 0
	const trials = 240
	for trial := 0; trial < trials; trial++ {
		r := eq3Ratios[trial%len(eq3Ratios)]
		m, src := randomModel(rng, 1+rng.Intn(4), r.b, r.g, 400, 400)
		m.cfg.Search = []Search{LinearSearch, BinarySearch}[rng.Intn(2)]
		m.cfg.Strategy = []Strategy{EqSel, NonEqSel}[rng.Intn(2)]
		var snap *profiler.Snapshot
		if m.cfg.Strategy == NonEqSel {
			snap = randomSnapshot(rng, r.g, src.maxD)
		}
		ref := newRefEvaluator(m)
		gp := rng.Float64()
		switch rng.Intn(4) {
		case 0:
			gp = float64(rng.Intn(2))
		case 1, 2:
			kc := r.g * stream.Time(1+rng.Int63n(int64(src.maxD/r.g+1)))
			if lo, hi := ref.recall(kc-r.g, snap), ref.recall(kc, snap); lo < hi {
				gp = (lo + hi) / 2
			}
		}
		got := m.DecideShared(0, snap, gp)
		want := m.search(ref, snap, gp, src.maxD)
		if got != want {
			t.Fatalf("trial %d (%v, %v, b=%d g=%d W=%v Γ′=%v): k* = %d, reference %d",
				trial, m.cfg.Search, m.cfg.Strategy, r.b, r.g, m.windows, gp, got, want)
		}
		if got > 0 {
			positive++
		}
	}
	if positive < trials/4 {
		t.Fatalf("only %d of %d decisions chose k* > 0; the differential is too weak", positive, trials)
	}
}

// TestEffectiveWindowExactOnceCovered pins the case the random sweep rarely
// hits: counts {2, 3, 1} give a CDF whose stride-1 prefix before the top
// bucket is 1.1666…, and (1.1666… + 1) − 1.1666… rounds to 1 + 2⁻⁵². With
// W = 11 = b + 1 that error would survive into Eq. 3, so a shift reaching the
// top bucket must still give exactly W: the prefix stops below the trailing
// run of exact ones.
func TestEffectiveWindowExactOnceCovered(t *testing.T) {
	src := &fakeSource{cdfs: [][]float64{{2.0 / 6, 5.0 / 6, 1}}, ksync: []stream.Time{0}, maxD: 20}
	m := NewModel(Config{B: 10, G: 10}, []stream.Time{11}, src, nil)
	m.ev.load()
	for shift := 2; shift <= 4; shift++ {
		if got := m.ev.effectiveWindow(0, shift); got != 11 {
			t.Fatalf("shift %d covers the distribution: Eq. 3 = %v, want exactly 11", shift, got)
		}
	}
}
