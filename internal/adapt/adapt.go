// Package adapt implements the Buffer-Size Manager of Fig. 2: at the end of
// every adaptation interval L it chooses the common K-slack buffer size k*
// for the next interval (the Same-K policy of Theorem 1 means one value
// serves all streams).
//
// The model-based policy follows Sec. IV: it estimates the recall γ(L,K)
// that buffer size K would produce (Eq. 3–5), optionally scaled by the
// learned delay–productivity selectivity ratio (Eq. 6, the NonEqSel
// strategy), derives the instant recall requirement Γ′ from the
// user-specified Γ via the Result-Size Monitor (Eq. 7), and searches for the
// minimum k* with γ(L,k*) ≥ Γ′ at granularity g (Alg. 3).
//
// The No-K-slack and Max-K-slack baselines of Sec. VI are provided as
// alternative policies.
package adapt

import (
	"math"
	"slices"
	"time"

	"repro/internal/profiler"
	"repro/internal/stream"
)

// Source supplies the per-input delay statistics the model-based policy
// reads: one cumulative delay distribution and Synchronizer buffer estimate
// per model input, plus the recent maximum delay bounding the Alg. 3 search.
// stats.Manager implements it directly (inputs = raw streams); the feedback
// runtime also implements it per decision scope, where an input may be a
// *group* of raw streams (e.g. the left side of a binary tree stage) whose
// distributions are merged. The seam keeps this package free of any
// dependency on how statistics are collected.
type Source interface {
	// CDF writes Pr[D_i ≤ d] over coarse g-buckets for model input i into
	// dst, reusing its capacity, and returns it; an empty result means "no
	// delays observed" (all mass at zero).
	CDF(i int, dst []float64) []float64
	// KSync estimates the Synchronizer's implicit buffer for input i.
	KSync(i int) stream.Time
	// MaxDelayRecent returns MaxD^H over the inputs' recent histories.
	MaxDelayRecent() stream.Time
}

// ResultWindow is the Result-Size Monitor seam of the Γ′ derivation (Eq. 7):
// produced results and summed true-size estimates within the last P−L time
// units. monitor.Monitor implements it.
type ResultWindow interface {
	Produced() int64
	TrueEstimate() float64
}

// DelayTracker is the all-time maximum-delay seam of the Max-K-slack
// baseline. stats.Manager implements it.
type DelayTracker interface {
	MaxDelayAllTime() stream.Time
}

// Strategy selects how the selectivity under incomplete disorder handling is
// modeled (Sec. IV-B).
type Strategy int

const (
	// NonEqSel learns DPcorr from the join output and uses Eq. (6).
	NonEqSel Strategy = iota
	// EqSel assumes sel^on(K) = sel^on, i.e. a selectivity ratio of 1.
	EqSel
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == EqSel {
		return "EqSel"
	}
	return "NonEqSel"
}

// Search selects the Alg. 3 algorithm used to find the minimum k* with
// γ(L,k*) ≥ Γ′.
type Search int

const (
	// LinearSearch is the paper's trial-and-error scan k* = 0, g, 2g, …
	LinearSearch Search = iota
	// BinarySearch probes O(log(MaxD^H/g)) candidates instead, exploiting
	// the monotonicity of γ(L,K) in K. The paper leaves "other algorithms
	// for searching for k*" as future work; this is the natural one. Under
	// NonEqSel the learned selectivity ratio can make the target function
	// locally non-monotone, in which case binary search still returns a
	// feasible k* but not necessarily the minimal one.
	BinarySearch
)

// String implements fmt.Stringer.
func (s Search) String() string {
	if s == BinarySearch {
		return "binary"
	}
	return "linear"
}

// Config carries the user requirements and system parameters of the
// framework (Table I).
type Config struct {
	Gamma float64     // Γ: required minimum recall γ(P)
	P     stream.Time // result-quality measurement period
	L     stream.Time // adaptation interval (L ≤ P)
	B     stream.Time // basic window size b
	G     stream.Time // K-search granularity g

	Strategy Strategy
	Search   Search

	// NoCalibration disables the Γ′ derivation of Eq. (7) and uses the raw
	// Γ as the instant requirement (ablation knob; the paper always
	// calibrates).
	NoCalibration bool
}

// Default system parameters from Sec. VI.
const (
	DefaultB = 10 * stream.Millisecond
	DefaultG = 10 * stream.Millisecond
)

// Normalize fills unset parameters with the paper's defaults and clamps
// inconsistent ones.
func (c Config) Normalize() Config {
	if c.P <= 0 {
		c.P = stream.Minute
	}
	if c.L <= 0 {
		c.L = stream.Second
	}
	if c.L > c.P {
		c.L = c.P
	}
	if c.B <= 0 {
		c.B = DefaultB
	}
	if c.G <= 0 {
		c.G = DefaultG
	}
	if c.Gamma < 0 {
		c.Gamma = 0
	}
	if c.Gamma > 1 {
		c.Gamma = 1
	}
	return c
}

// Policy decides the K-slack buffer size applied during the next adaptation
// interval. Decide is called once per interval with the interval's
// productivity snapshot.
type Policy interface {
	Name() string
	Decide(now stream.Time, snap *profiler.Snapshot) stream.Time
}

// NoK is the No-K-slack baseline: K_i = 0 for all streams, leaving only the
// Synchronizer to handle disorder.
type NoK struct{}

// Name implements Policy.
func (NoK) Name() string { return "No-K-slack" }

// Decide implements Policy.
func (NoK) Decide(stream.Time, *profiler.Snapshot) stream.Time { return 0 }

// MaxK is the Max-K-slack baseline [12]: K equals the maximum delay among
// all so-far-observed tuples from all streams.
type MaxK struct {
	Stats DelayTracker
}

// Name implements Policy.
func (MaxK) Name() string { return "Max-K-slack" }

// Decide implements Policy.
func (p MaxK) Decide(stream.Time, *profiler.Snapshot) stream.Time {
	return p.Stats.MaxDelayAllTime()
}

// Static applies a fixed buffer size; useful for tests and ablations.
type Static struct{ K stream.Time }

// Name implements Policy.
func (Static) Name() string { return "Static-K" }

// Decide implements Policy.
func (p Static) Decide(stream.Time, *profiler.Snapshot) stream.Time { return p.K }

// Model is the quality-driven, model-based policy of Alg. 3.
type Model struct {
	cfg     Config
	windows []stream.Time
	stats   Source
	mon     ResultWindow
	ev      evaluator // reused across decisions: Decide allocates nothing

	// instrumentation for Fig. 11 and the ablation benches
	steps      int64
	iterations int64
	adaptTime  time.Duration
	lastGammaP float64
	lastRecall float64
}

// NewModel creates the model-based policy. windows are the W_i of the model
// inputs (one per Source input).
func NewModel(cfg Config, windows []stream.Time, st Source, mon ResultWindow) *Model {
	m := &Model{cfg: cfg.Normalize(), windows: windows, stats: st, mon: mon}
	m.ev.init(m)
	return m
}

// Name implements Policy.
func (m *Model) Name() string { return "Model(" + m.cfg.Strategy.String() + ")" }

// Decide implements Policy: Alg. 3. Per-input cumulative delay
// distributions and their strided prefix sums are snapshotted once per
// decision, in O(Σ_i |CDF_i|), into buffers the model reuses, so each
// candidate K evaluates in O(Σ_i q_i), where q_i is the denominator of
// min(b, W_i)/g in lowest terms: O(m) at the paper's b = g. In steady state
// a decision allocates nothing.
func (m *Model) Decide(now stream.Time, snap *profiler.Snapshot) stream.Time {
	return m.decide(now, snap, m.instantRequirement(snap))
}

// DecideShared is Decide with the instant requirement Γ′ supplied by the
// caller instead of derived from this model's own monitor seam. The
// feedback runtime's per-stage mode uses it: the requirement is derived
// once, at the root decision scope (whose monitor window sees the final
// results), and every stage then searches its own k* against that shared
// target. Deriving Γ′ per stage would divide the root-produced result count
// by stage-local true-size estimates — incoherent for middle stages, whose
// intermediate result sizes dwarf the final output's.
func (m *Model) DecideShared(now stream.Time, snap *profiler.Snapshot, gammaPrime float64) stream.Time {
	return m.decide(now, snap, gammaPrime)
}

func (m *Model) decide(now stream.Time, snap *profiler.Snapshot, gammaPrime float64) stream.Time {
	start := time.Now()
	m.lastGammaP = gammaPrime
	m.ev.load()
	k := m.search(&m.ev, snap, gammaPrime, m.stats.MaxDelayRecent())
	m.steps++
	m.adaptTime += time.Since(start)
	return k
}

// recaller is the γ(L,K) estimate the Alg. 3 search probes. *evaluator is
// the production one; tests plug in a reference.
type recaller interface {
	recall(k stream.Time, snap *profiler.Snapshot) float64
}

// search runs the configured Alg. 3 search against r and caps k* at MaxD^H.
func (m *Model) search(r recaller, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time) stream.Time {
	var k stream.Time
	if m.cfg.Search == BinarySearch {
		k = m.searchBinary(r, snap, gammaPrime, maxDH)
	} else {
		k = m.searchLinear(r, snap, gammaPrime, maxDH)
	}
	return min(k, maxDH)
}

// searchLinear is Alg. 3 as printed: scan k* = 0, g, 2g, … until the model
// meets the instant requirement or the maximum observed delay is exceeded.
func (m *Model) searchLinear(ev recaller, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time) stream.Time {
	var k stream.Time
	for {
		m.iterations++
		r := ev.recall(k, snap)
		m.lastRecall = r
		if r >= gammaPrime || k > maxDH {
			return k
		}
		k += m.cfg.G
	}
}

// searchBinary finds the smallest multiple of g meeting the requirement
// with O(log) model evaluations.
func (m *Model) searchBinary(ev recaller, snap *profiler.Snapshot, gammaPrime float64, maxDH stream.Time) stream.Time {
	m.iterations++
	if r := ev.recall(0, snap); r >= gammaPrime {
		m.lastRecall = r
		return 0
	}
	m.iterations++
	if r := ev.recall(maxDH, snap); r < gammaPrime {
		m.lastRecall = r
		return maxDH
	}
	lo, hi := stream.Time(0), (maxDH+m.cfg.G-1)/m.cfg.G // in units of g; recall(hi·g) ≥ Γ′
	for lo+1 < hi {
		mid := (lo + hi) / 2
		m.iterations++
		r := ev.recall(mid*m.cfg.G, snap)
		m.lastRecall = r
		if r >= gammaPrime {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi * m.cfg.G
}

// evaluator caches, for one adaptation step, each input's cumulative
// coarse-delay distribution, its stride-p prefix sums and its Synchronizer
// buffer estimate, so the Alg. 3 search can probe many K candidates
// cheaply. Its buffers live as long as the Model and are refilled by load.
type evaluator struct {
	m          *Model
	in         []evalInput
	fdk0, effW []float64 // per-candidate scratch of recall
	den        float64   // Σ_i Π_{j≠i} W_j, constant across K
}

// evalInput is one model input's share of the evaluator. Its basic windows
// (Eq. 3) have width b = min(B, W) except the last, which is W − (n−1)·b
// wide; window l starts ⌊(l−1)·b/g⌋ coarse buckets into the delay
// distribution, and b/g = p/q in lowest terms.
type evalInput struct {
	cum   []float64 // cum[d] = Pr[D ≤ d]; empty means "no delays seen"
	ones  int       // cum[d] = 1 for every d ≥ ones, exactly
	pre   []float64 // pre[x] = Σ cum[y] over y ≤ x, y ≡ x (mod p), x < ones
	ksync stream.Time

	b, last stream.Time
	n, p, q int
}

func (ev *evaluator) init(m *Model) {
	n := len(m.windows)
	ev.m = m
	ev.in = make([]evalInput, n)
	ev.fdk0 = make([]float64, n)
	ev.effW = make([]float64, n)
	for i, w := range m.windows {
		in := &ev.in[i]
		in.b = min(m.cfg.B, w)
		if in.b > 0 {
			in.n = int((w + in.b - 1) / in.b)
			in.last = w - stream.Time(in.n-1)*in.b
			gcd := int64(in.b)
			for r := int64(m.cfg.G); r != 0; {
				gcd, r = r, gcd%r
			}
			in.p, in.q = int(int64(in.b)/gcd), int(int64(m.cfg.G)/gcd)
		}
		p := 1.0
		for j, wj := range m.windows {
			if j != i {
				p *= float64(wj)
			}
		}
		ev.den += p
	}
}

// load snapshots every input's CDF and Synchronizer estimate and rebuilds
// the stride-p prefix sums, in O(|CDF|) per input.
func (ev *evaluator) load() {
	for i := range ev.in {
		in := &ev.in[i]
		in.cum = ev.m.stats.CDF(i, in.cum)
		in.ksync = ev.m.stats.KSync(i)
		in.ones = len(in.cum)
		for in.ones > 0 && in.cum[in.ones-1] == 1 {
			in.ones--
		}
		in.pre = slices.Grow(in.pre[:0], in.ones)[:in.ones]
		for x, c := range in.cum[:in.ones] {
			if x >= in.p {
				c += in.pre[x-in.p]
			}
			in.pre[x] = c
		}
	}
}

// cdf returns Pr[D_i ≤ d] in O(1).
func (ev *evaluator) cdf(i, d int) float64 {
	if d < 0 {
		return 0
	}
	c := ev.in[i].cum
	if d >= len(c) {
		return 1
	}
	return c[d]
}

// recall evaluates γ(L,K) per Eq. (5).
func (ev *evaluator) recall(k stream.Time, snap *profiler.Snapshot) float64 {
	m := ev.m
	n := len(ev.in)
	for i := range ev.in {
		shift := int((k + ev.in[i].ksync) / m.cfg.G)
		ev.fdk0[i] = ev.cdf(i, shift)
		ev.effW[i] = ev.effectiveWindow(i, shift)
	}
	var num float64
	for i := 0; i < n; i++ {
		pn := ev.fdk0[i]
		for j := 0; j < n; j++ {
			if j != i {
				pn *= ev.effW[j]
			}
		}
		num += pn
	}
	if ev.den == 0 {
		return 1
	}
	gamma := num / ev.den
	if m.cfg.Strategy == NonEqSel && snap != nil {
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

// effectiveWindow evaluates Σ_l |w^l_j| / r_j (Eq. 3) in O(min(q, n)):
// the offsets of the n−1 full-width windows, ⌊t·p/q⌋ for t = 0…n−2, split
// into q arithmetic progressions of stride p (t ≡ r mod q), each summed by
// progression; the last window adds one more term. DESIGN.md §15 derives it.
func (ev *evaluator) effectiveWindow(j, shift int) float64 {
	in := &ev.in[j]
	if in.n == 0 {
		return 0
	}
	var full float64
	for r := 0; r < in.q && r < in.n-1; r++ {
		full += in.progression(shift+r*in.p/in.q, (in.n-2-r)/in.q+1)
	}
	return float64(in.b)*full + float64(in.last)*ev.cdf(j, shift+(in.n-1)*in.p/in.q)
}

// progression returns Σ_{s<cnt} Pr[D ≤ x0 + s·p] with two prefix lookups:
// offsets below zero contribute 0 and offsets from ones on contribute
// exactly 1 each, so a K that covers the whole distribution yields the
// exact window size, as the term-by-term sum does.
func (in *evalInput) progression(x0, cnt int) float64 {
	if x0 < 0 {
		skip := (in.p - 1 - x0) / in.p
		if skip >= cnt {
			return 0
		}
		x0 += skip * in.p
		cnt -= skip
	}
	if x0 >= in.ones {
		return float64(cnt)
	}
	inside := min(cnt, (in.ones-1-x0)/in.p+1)
	sum := in.pre[x0+(inside-1)*in.p]
	if x0 >= in.p {
		sum -= in.pre[x0-in.p]
	}
	return sum + float64(cnt-inside)
}

// instantRequirement derives Γ′ per Eq. (7) and applies it clamped to
// [Γ, 1]: calibration tightens the requirement when the recent past fell
// behind, but never relaxes it below the user's Γ. The paper prints the
// final requirement as "max{Γ′, 1}", which is degenerate as written (always
// 1 ⇒ Max-K-slack); we read it as max{Γ′, Γ}. Allowing relaxation below Γ
// (min{Γ′,1}) makes the controller ride the Γ threshold from below and
// destroys Φ(Γ) — see DESIGN.md §4. When calibration is disabled or no
// statistics exist yet, the raw Γ is used.
func (m *Model) instantRequirement(snap *profiler.Snapshot) float64 {
	if m.cfg.NoCalibration || snap == nil {
		return m.cfg.Gamma
	}
	trueL := snap.TrueResults()
	if trueL <= 0 {
		return m.cfg.Gamma
	}
	prodPL := float64(m.mon.Produced())
	truePL := m.mon.TrueEstimate()
	gp := (m.cfg.Gamma*(truePL+trueL) - prodPL) / trueL
	if gp < m.cfg.Gamma {
		return m.cfg.Gamma
	}
	if gp > 1 {
		return 1
	}
	return gp
}

// EstimateRecall computes γ(L,K) per Eq. (5). It reloads the model's
// evaluator from the Source on every call; loops over many K values should
// use Decide, which loads it once per decision.
func (m *Model) EstimateRecall(k stream.Time, snap *profiler.Snapshot) float64 {
	m.ev.load()
	return m.ev.recall(k, snap)
}

// InstantRequirement exposes Γ′ computation for tests.
func (m *Model) InstantRequirement(snap *profiler.Snapshot) float64 {
	return m.instantRequirement(snap)
}

// AdaptStats reports instrumentation: number of adaptation steps, total
// model iterations across all searches, and cumulative wall-clock time spent
// inside Decide.
func (m *Model) AdaptStats() (steps, iterations int64, total time.Duration) {
	return m.steps, m.iterations, m.adaptTime
}

// LastGammaPrime returns the most recently derived instant requirement.
func (m *Model) LastGammaPrime() float64 { return m.lastGammaP }
