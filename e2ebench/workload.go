package main

import (
	"fmt"
	"math/rand"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// workload is one benchmark input: a paper dataset plus the deployment
// options the join runs under. Every workload uses the paper's defaults
// (Model policy, Γ = 0.95, P = 1 min, L = 1 s, b = g = 10 ms, NonEqSel).
type workload struct {
	name    string
	dataset string // exp.KeyX2, KeyX3 or KeyX4
	batch   int    // WithBatchSize; ≤ 1 is per-tuple
	shards  int    // WithShards; ≤ 1 is the single-threaded path
	// supervised runs under WithSupervision with the default schedule.
	supervised bool
	// enumerate installs a WithResults sink that receives every result.
	enumerate bool
	// reference names the workload whose results and K trajectory this one
	// must reproduce on the same seed ("" for none).
	reference string
	// feeds is the number of independent feeds a run generates, each
	// minutes long and made of segments generator segments.
	feeds    int
	minutes  float64
	segments int
}

// Synthetic feeds are four generator segments each (see NOTES.md). The
// soccer generator's burst schedule does not scale with the length it is
// asked for, so segmenting x2 would add no regimes.
var workloads = []workload{
	{name: "x3-model", dataset: exp.KeyX3, feeds: 10, minutes: feedMinutes, segments: 4},
	{name: "x4-model-batch64", dataset: exp.KeyX4, batch: 64, feeds: 12, minutes: feedMinutes, segments: 4},
	{name: "x2-model-enum", dataset: exp.KeyX2, enumerate: true, feeds: 10, minutes: feedMinutes, segments: 1},
	{name: "x3-model-shard2-sup", dataset: exp.KeyX3, shards: 2, supervised: true, reference: "x3-model", feeds: 10, minutes: feedMinutes, segments: 4},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// feedMinutes is the logical length of every feed: eleven measurement
// periods, so that each feed's Φ(.99Γ) rests on ten periods after the first
// one, which the paper's evaluation excludes.
const feedMinutes = 11

// paperConfig is the framework configuration every workload runs at.
func paperConfig() adapt.Config {
	return adapt.Config{
		Gamma:    0.95,
		P:        stream.Minute,
		L:        stream.Second,
		B:        10 * stream.Millisecond,
		G:        10 * stream.Millisecond,
		Strategy: adapt.NonEqSel,
	}.Normalize()
}

func paperOptions() qdhj.Options {
	c := paperConfig()
	return qdhj.Options{
		Gamma:       c.Gamma,
		Period:      c.P,
		Interval:    c.L,
		BasicWindow: c.B,
		Granularity: c.G,
		Strategy:    c.Strategy,
		Policy:      qdhj.QualityDriven,
	}
}

// sampleEvery is the stride of enumerated results whose membership and
// timestamp are re-checked against the condition.
const sampleEvery = 1024

// sink is the application side of a run: it consumes result counts,
// enumerated results and adaptation events, and derives from them the
// quality and latency metrics. Both the public-API run and the traced
// harness feed the same sink type, so their outputs compare directly. All
// storage is allocated up front; the callbacks do not allocate.
type sink struct {
	cond  *join.Condition
	truth *oracle.Index
	p     stream.Time

	// clock is the input clock: the largest timestamp pushed so far. The
	// load loop advances it before every Push.
	clock stream.Time

	lat      *latencyHist
	produced *fenwick

	results    int64 // Σ n over count callbacks
	enumerated int64 // results delivered to the enumerating sink
	badSamples int64 // sampled enumerated results that failed a check
	samples    int64

	ks      []stream.Time         // K trajectory, one entry per decision
	recalls []metrics.Measurement // γ(P) before every adaptation step
	overOne int                   // γ(P) values above 1
}

func newSink(ds *exp.Dataset) *sink {
	lo, hi := ds.Arrivals[0].TS, ds.Arrivals[0].TS
	for _, e := range ds.Arrivals {
		lo = min(lo, e.TS)
		hi = max(hi, e.TS)
	}
	steps := int((hi-lo)/stream.Second) + 16
	return &sink{
		cond:     ds.Cond,
		truth:    ds.Truth,
		p:        paperConfig().P,
		lat:      newLatencyHist(hi - lo),
		produced: newFenwick(lo, hi),
		ks:       make([]stream.Time, 0, steps),
		recalls:  make([]metrics.Measurement, 0, steps),
	}
}

func (s *sink) reset() {
	s.clock = 0
	s.lat.reset()
	s.produced.reset()
	s.results, s.enumerated, s.badSamples, s.samples = 0, 0, 0, 0
	s.ks = s.ks[:0]
	s.recalls = s.recalls[:0]
	s.overOne = 0
}

// counts receives n results of timestamp ts (WithResultCounts).
func (s *sink) counts(ts stream.Time, n int64) {
	s.results += n
	s.lat.add(s.clock-ts, n)
	s.produced.add(ts, n)
}

// result receives one enumerated result (WithResults). Every sampleEvery-th
// result is checked: it must satisfy the condition and carry the maximum
// member timestamp.
func (s *sink) result(r stream.Result) {
	s.enumerated++
	if s.enumerated%sampleEvery != 0 {
		return
	}
	s.samples++
	var maxTS stream.Time
	for _, t := range r.Tuples {
		maxTS = max(maxTS, t.TS)
	}
	if len(r.Tuples) != s.cond.M || r.TS != maxTS || !s.cond.Matches(r.Tuples) {
		s.badSamples++
	}
}

// adapt receives one adaptation step: it records the new K and measures
// γ(P) at the output watermark, as exp.Run does, without clamping it to 1.
func (s *sink) adapt(outT, newK stream.Time) {
	s.ks = append(s.ks, newK)
	trueN := s.truth.CountRange(outT-s.p, outT)
	if trueN == 0 {
		return
	}
	got := s.produced.upTo(outT) - s.produced.upTo(outT-s.p)
	r := float64(got) / float64(trueN)
	if r > 1 {
		s.overOne++
	}
	s.recalls = append(s.recalls, metrics.Measurement{Now: outT, Recall: r})
}

// quality summarizes a γ(P) series as the paper does: the mean of the
// usable measurements and Φ(.99Γ) in percent.
func quality(recalls []metrics.Measurement) (recallMean, phi99 float64) {
	cfg := paperConfig()
	series := metrics.NewSeries(cfg.P)
	for _, m := range recalls {
		series.Add(m.Now, m.Recall)
	}
	phi99, _ = series.Phi(0.99 * cfg.Gamma)
	return series.Mean(), phi99
}

// outcome is the part of a run that must repeat exactly: across repeats,
// between the traced and untraced runs, and between a workload and its
// reference.
type outcome struct {
	results    int64
	enumerated int64
	avgK       float64
	ks         []stream.Time
	recalls    []metrics.Measurement
	latP50     float64
	latP99     float64

	// Checked on their own rather than compared.
	overOne    int   // γ(P) samples above 1
	samples    int64 // enumerated results re-checked
	badSamples int64 // re-checked results that failed
}

func (s *sink) outcome(avgK float64) outcome {
	return outcome{
		results:    s.results,
		enumerated: s.enumerated,
		avgK:       avgK,
		ks:         append([]stream.Time(nil), s.ks...),
		recalls:    append([]metrics.Measurement(nil), s.recalls...),
		latP50:     s.lat.quantile(0.50),
		latP99:     s.lat.quantile(0.99),
		overOne:    s.overOne,
		samples:    s.samples,
		badSamples: s.badSamples,
	}
}

// diff describes the first way o and ref disagree, or returns "" when they
// agree. Result latency and the γ(P) series are compared only when exact is
// set: a sharded run delivers results at interval boundaries rather than per
// arrival, so both differ from the single-threaded reference by design.
func (o outcome) diff(ref outcome, exact bool) string {
	switch {
	case o.results != ref.results:
		return fmt.Sprintf("results %d != %d", o.results, ref.results)
	case o.enumerated != ref.enumerated:
		return fmt.Sprintf("enumerated %d != %d", o.enumerated, ref.enumerated)
	case o.avgK != ref.avgK:
		return fmt.Sprintf("avgK %v != %v", o.avgK, ref.avgK)
	case len(o.ks) != len(ref.ks):
		return fmt.Sprintf("%d decisions != %d", len(o.ks), len(ref.ks))
	case exact && (o.latP50 != ref.latP50 || o.latP99 != ref.latP99):
		return fmt.Sprintf("latency p50/p99 %v/%v != %v/%v", o.latP50, o.latP99, ref.latP50, ref.latP99)
	}
	for i := range o.ks {
		if o.ks[i] != ref.ks[i] {
			return fmt.Sprintf("K trajectory differs at step %d: %d != %d", i, o.ks[i], ref.ks[i])
		}
	}
	if !exact {
		return ""
	}
	if len(o.recalls) != len(ref.recalls) {
		return fmt.Sprintf("%d γ(P) samples != %d", len(o.recalls), len(ref.recalls))
	}
	for i := range o.recalls {
		if o.recalls[i] != ref.recalls[i] {
			return fmt.Sprintf("γ(P) differs at sample %d: %v != %v", i, o.recalls[i], ref.recalls[i])
		}
	}
	return ""
}

// prepare generates one feed of the workload and its ground truth. The feed
// is w.segments back-to-back runs of the paper's generator, each with its
// own seed; timestamps continue across segment boundaries (see NOTES.md for
// why).
func prepare(w workload, seed int64) *exp.Dataset {
	rng := rand.New(rand.NewSource(seed))
	segDur := stream.Time(w.minutes * float64(stream.Minute) / float64(w.segments))
	var out stream.Batch
	var d *gen.Dataset
	for j := 0; j < w.segments; j++ {
		d = generate(w.dataset, segDur, rng.Int63())
		for _, e := range d.Arrivals {
			e.TS += stream.Time(j) * segDur
			e.Seq = uint64(len(out))
			out = append(out, e)
		}
	}
	d.Arrivals = out
	return &exp.Dataset{Dataset: d, Truth: oracle.TrueResults(d.Cond, d.Windows, out)}
}

// generate runs the paper's generator of dataset key, as exp.Prepare does,
// without computing ground truth.
func generate(key string, dur stream.Time, seed int64) *gen.Dataset {
	switch key {
	case exp.KeyX3:
		return gen.Synthetic3(gen.SynthConfig{Duration: dur, Seed: seed})
	case exp.KeyX4:
		return gen.Synthetic4(gen.SynthConfig{Duration: dur, Seed: seed})
	default:
		return gen.Soccer(gen.SoccerConfig{Duration: dur, Seed: seed})
	}
}
