// Command e2ebench is the end-to-end benchmark of the quality-driven join:
// qdhj.Join with the Model policy at the paper's defaults (Γ = 0.95,
// P = 1 min, L = 1 s, b = g = 10 ms, NonEqSel) on four workloads, fed by
// one goroutine in a closed loop.
//
//	go run . --workload x3-model --seed 1 --seconds 25 --trace 0
//
// A run generates several independent feeds from --seed and gives each an
// equal share of --seconds. With --trace 0 it times passes of every feed
// through the public API and prints the end-to-end metrics. With --trace 1
// it alternates those passes with passes through a traced rebuild of the
// same pipeline and prints the per-layer split instead. Either way it checks
// the outputs (see NOTES.md) and prints, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. It exits 1 when a
// check fails and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/exp"
)

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects metrics and failed checks.
type report struct {
	metrics  []metric
	failures []string
}

func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.failf("metric %s is not finite", name)
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "how long the timed passes run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	var rep report
	feeds := runFeeds(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, &rep)
	var all []pass
	for _, f := range feeds {
		all = append(all, f.all()...)
	}
	attempted, failed := tally(all)
	if failed == 0 {
		if *trace == 0 {
			endToEnd(feeds, &rep)
		} else {
			perLayer(feeds, &rep)
		}
	}

	fmt.Printf("# e2ebench workload=%s seed=%d trace=%d feeds=%d num_cpu=%d gomaxprocs=%d\n",
		w.name, *seed, *trace, len(feeds), runtime.NumCPU(), procs)
	for _, m := range rep.metrics {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// feedRun is everything measured on one feed.
type feedRun struct {
	setup  time.Duration // generation, ground truth and NewJoin
	first  outcome       // the first public pass; every later pass must repeat it
	warmUp []pass        // untimed passes: the process's first, and the reference's
	timed  []pass        // timed public-API passes
	traced []tracedPass
	opOnly []float64 // NoSlack operator-only tuples/s
}

func (f *feedRun) all() []pass {
	out := append(append([]pass(nil), f.warmUp...), f.timed...)
	for _, t := range f.traced {
		out = append(out, t.pass)
	}
	return out
}

// feedSeeds derives the seeds of a run's feeds from the run's seed.
func feedSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// runFeeds sets up each of the workload's feeds in turn and spends an equal
// share of the budget on passes over it: at least one public pass per feed
// and, when traced, at least one traced pass per feed. The very first pass of the
// process warms the heap and caches and is checked but not timed; on a
// workload with a reference, the reference runs once on the first feed.
func runFeeds(w workload, seed int64, budget time.Duration, traced bool, rep *report) []*feedRun {
	// A traced feed costs about two public passes, so a traced run covers
	// half the feeds in the same budget.
	n := w.feeds
	if traced {
		n = max(2, n/2)
	}
	start := time.Now()
	feeds := make([]*feedRun, 0, n)
	for i, fseed := range feedSeeds(seed, n) {
		deadline := start.Add(budget * time.Duration(i+1) / time.Duration(n))
		runtime.GC()
		t0 := time.Now()
		ds := prepare(w, fseed)
		sk := newSink(ds)
		j := newJoin(w, ds, sk)
		f := &feedRun{setup: time.Since(t0)}
		feeds = append(feeds, f)

		p := runPublic(w, ds, sk, j)
		if i == 0 {
			f.warmUp = append(f.warmUp, p)
		} else {
			f.timed = append(f.timed, p)
		}
		if p.err != nil {
			rep.failf("feed %d pass 0: %v", i, p.err)
			return feeds
		}
		f.first = p.out
		checkPass(w, fmt.Sprintf("feed %d pass 0", i), p, rep)
		if w.reference != "" && i == 0 {
			f.warmUp = append(f.warmUp, checkReference(w, ds, sk, f.first, rep))
		}
		for len(f.timed) == 0 || (traced && len(f.traced) == 0) || time.Now().Before(deadline) {
			if traced && len(f.traced) < len(f.timed) {
				t := runTraced(w, ds, sk)
				f.traced = append(f.traced, t)
				if t.err != nil {
					rep.failf("feed %d traced pass %d: %v", i, len(f.traced), t.err)
					return feeds
				}
				if d := t.out.diff(f.first, true); d != "" {
					rep.failf("feed %d traced pass %d differs from the public API: %s", i, len(f.traced), d)
				}
				continue
			}
			p := runPublic(w, ds, sk, nil)
			f.timed = append(f.timed, p)
			what := fmt.Sprintf("feed %d pass %d", i, len(f.warmUp)+len(f.timed)-1)
			if p.err != nil {
				rep.failf("%s: %v", what, p.err)
				return feeds
			}
			checkPass(w, what, p, rep)
			if d := p.out.diff(f.first, true); d != "" {
				rep.failf("%s differs from pass 0: %s", what, d)
			}
		}
		if traced {
			tps, err := runOperatorOnly(w, ds)
			if err != nil {
				rep.failf("feed %d operator-only pass: %v", i, err)
				return feeds
			}
			f.opOnly = append(f.opOnly, tps)
		}
	}
	return feeds
}

// checkPass applies the checks that need no second pass.
func checkPass(w workload, what string, p pass, rep *report) {
	rep.check(p.out.overOne == 0, "%s: %d γ(P) samples above 1", what, p.out.overOne)
	rep.check(p.joinResults == p.out.results, "%s: Join.Results() %d != %d counted", what, p.joinResults, p.out.results)
	if w.enumerate {
		rep.check(p.out.enumerated == p.joinResults, "%s: enumerated %d results, Join.Results() %d", what, p.out.enumerated, p.joinResults)
		rep.check(p.out.samples > 0 && p.out.badSamples == 0, "%s: %d of %d sampled results fail the condition or carry a wrong TS", what, p.out.badSamples, p.out.samples)
	}
}

// checkReference runs the workload's reference once on the same feed and
// requires the results and K trajectory of mine. It returns the pass.
func checkReference(w workload, ds *exp.Dataset, sk *sink, mine outcome, rep *report) pass {
	ref, err := findWorkload(w.reference)
	if err != nil {
		rep.failf("reference: %v", err)
		return pass{}
	}
	theirs := runPublic(ref, ds, sk, nil)
	if theirs.err != nil {
		rep.failf("reference pass %s: %v", ref.name, theirs.err)
	} else if d := mine.diff(theirs.out, false); d != "" {
		rep.failf("%s differs from %s on the same seed: %s", w.name, ref.name, d)
	}
	return theirs
}

// tally counts attempted and failed pushes: every push of a pass that
// panicked or ended with Join.Err set counts as failed.
func tally(ps []pass) (attempted, failed int) {
	for _, p := range ps {
		attempted += p.tuples
		if p.err != nil {
			failed += p.tuples
		}
	}
	return attempted, failed
}

// endToEnd reports the end-to-end metrics: throughput and allocations over
// all timed passes together, the deterministic quality and latency metrics
// and the set-up time as medians over the feeds.
func endToEnd(feeds []*feedRun, rep *report) {
	var wall time.Duration
	var tuples, allocs, bytes float64
	for _, f := range feeds {
		for _, p := range f.timed {
			wall += p.wall
			tuples += float64(p.tuples)
			allocs += float64(p.allocs)
			bytes += float64(p.bytes)
		}
	}
	perFeed := func(get func(f *feedRun) float64) float64 {
		xs := make([]float64, len(feeds))
		for i, f := range feeds {
			xs[i] = get(f)
		}
		return median(xs)
	}
	recall := func(f *feedRun) float64 { r, _ := quality(f.first.recalls); return r }
	phi := func(f *feedRun) float64 { _, phi := quality(f.first.recalls); return phi }
	rep.add("tuples_per_s", tuples/wall.Seconds(), "1/s")
	rep.add("avg_k_ms", perFeed(func(f *feedRun) float64 { return f.first.avgK }), "ms")
	rep.add("result_latency_p50_ms", perFeed(func(f *feedRun) float64 { return f.first.latP50 }), "ms")
	rep.add("result_latency_p99_ms", perFeed(func(f *feedRun) float64 { return f.first.latP99 }), "ms")
	rep.add("recall_mean", perFeed(recall), "ratio")
	rep.add("phi99_pct", perFeed(phi), "%")
	rep.add("allocs_per_tuple", allocs/tuples, "allocs/tuple")
	rep.add("alloc_bytes_per_tuple", bytes/tuples, "B/tuple")
	rep.add("setup_s", perFeed(func(f *feedRun) float64 { return f.setup.Seconds() }), "s")
}

// perLayer reports the per-layer split, pooled over every traced pass.
func perLayer(feeds []*feedRun, rep *report) {
	var self [nLayers]time.Duration
	var wall, pubWall, ckptTime time.Duration
	var tuples, nTraced, restarts int
	var overhead, opOnly, checkpoints []float64
	var decide, flush []time.Duration
	var bounds, kslackBuf, syncBuf, windowTotal, syncIn, immediate, inOrder, outOfOrder, steps, iters int64
	for _, f := range feeds {
		trWalls := make([]float64, 0, len(f.traced))
		pubWalls := make([]float64, 0, len(f.timed))
		for _, t := range f.traced {
			h := t.h
			for l := range self {
				self[l] += h.tr.self[l]
			}
			wall += t.wall
			tuples += t.tuples
			nTraced++
			trWalls = append(trWalls, t.wall.Seconds())
			decide = append(decide, h.policy.decide...)
			if h.rt != nil {
				flush = append(flush, h.rt.flush...)
			}
			bounds += h.boundaries
			kslackBuf += h.kslackBuf
			syncBuf += h.syncBuf
			windowTotal += h.windowTotal
			syncIn += h.syncIn
			immediate += h.sync.Immediate()
			inOrder += h.inOrder
			outOfOrder += h.outOfOrder
			s, it, _ := h.model.AdaptStats()
			steps += s
			iters += it
		}
		for _, p := range f.timed {
			pubWall += p.wall
			pubWalls = append(pubWalls, p.wall.Seconds())
			ckptTime += p.ckptTime
			checkpoints = append(checkpoints, float64(p.checkpoints))
			restarts += p.restarts
		}
		overhead = append(overhead, median(trWalls)/median(pubWalls)-1)
		opOnly = append(opOnly, f.opOnly...)
	}
	other := 1.0
	for l := layer(0); l < nLayers; l++ {
		share := self[l].Seconds() / wall.Seconds()
		other -= share
		rep.add(layerNames[l]+".self_ns_per_tuple", float64(self[l].Nanoseconds())/float64(tuples), "ns")
		rep.add(layerNames[l]+".share", share, "ratio")
	}
	rep.add("other.share", other, "ratio")
	rep.add("trace.overhead", median(overhead), "ratio")
	nb := float64(max(bounds, 1))
	rep.add("kslack.buffered_mean", float64(kslackBuf)/nb, "tuples")
	rep.add("syncer.buffered_mean", float64(syncBuf)/nb, "tuples")
	rep.add("syncer.immediate_share", ratio(immediate, syncIn), "ratio")
	rep.add("join.in_order_share", ratio(inOrder, inOrder+outOfOrder), "ratio")
	rep.add("join.window_tuples_mean", float64(windowTotal)/nb, "tuples")
	rep.add("join.operator_only_tuples_per_s", median(opOnly), "1/s")
	rep.add("adapt.decisions", ratio(steps, int64(nTraced)), "count")
	rep.add("adapt.candidates_per_decision", ratio(iters, steps), "count")
	rep.add("adapt.decide_p50_us", durationQuantile(decide, 0.50), "us")
	rep.add("adapt.decide_p99_us", durationQuantile(decide, 0.99), "us")
	rep.add("shard.flush_p50_us", durationQuantile(flush, 0.50), "us")
	rep.add("shard.flush_p99_us", durationQuantile(flush, 0.99), "us")
	rep.add("fault.checkpoints", median(checkpoints), "count")
	rep.add("fault.checkpoint_share", ckptTime.Seconds()/pubWall.Seconds(), "ratio")
	rep.add("fault.restarts", float64(restarts), "count")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
