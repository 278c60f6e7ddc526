package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/stream"
)

// short returns w with two short feeds, enough to cross several adaptation
// boundaries, checkpoints and (on the batched workload) batch cuts.
func short(w workload) workload {
	w.feeds = 2
	w.minutes = 2
	return w
}

// TestTracedHarnessMatchesJoin pins the traced rebuild to qdhj.Join: on a
// short feed of every workload, and of a batch-64 enumerating variant, the
// results, enumerated results, K trajectory, AvgK, γ(P) series and result
// latency are identical.
func TestTracedHarnessMatchesJoin(t *testing.T) {
	cases := append([]workload(nil), workloads...)
	enumBatch := workloads[2]
	enumBatch.name, enumBatch.batch = "x2-model-enum-batch64", 64
	cases = append(cases, enumBatch)
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			ds := prepare(short(w), 7)
			sk := newSink(ds)
			pub := runPublic(w, ds, sk, nil)
			if pub.err != nil {
				t.Fatal(pub.err)
			}
			tr := runTraced(w, ds, sk)
			if tr.err != nil {
				t.Fatal(tr.err)
			}
			if d := tr.out.diff(pub.out, true); d != "" {
				t.Fatalf("traced harness differs from qdhj.Join: %s", d)
			}
			if pub.out.results == 0 || len(pub.out.ks) == 0 {
				t.Fatalf("degenerate feed: %d results, %d decisions", pub.out.results, len(pub.out.ks))
			}
			if w.enumerate && pub.out.enumerated != pub.out.results {
				t.Fatalf("enumerated %d of %d results", pub.out.enumerated, pub.out.results)
			}
			if w.supervised && tr.h.ckpts == 0 {
				t.Fatal("the supervised harness took no checkpoint")
			}
		})
	}
}

func TestWeightedQuantile(t *testing.T) {
	cases := []struct {
		w    []int64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]int64{0, 0, 5}, 0.5, 2},       // one value takes every quantile
		{[]int64{0, 0, 5}, 0.99, 2},      // ... including the tail
		{[]int64{4, 0, 0, 0, 4}, 0.5, 0}, // the first value covers its own share
		{[]int64{4, 0, 0, 0, 4}, 0.75, 2},
		{[]int64{4, 0, 0, 0, 4}, 1, 4},
		{[]int64{1, 1, 1, 1}, 0.5, 1},
		{[]int64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99}, 0.01, 0},
		{[]int64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99}, 0.5, 10 * 49.0 / 99},
	}
	for _, c := range cases {
		if got := weightedQuantile(c.w, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("weightedQuantile(%v, %v) = %v, want %v", c.w, c.q, got, c.want)
		}
	}
	h := newLatencyHist(10)
	h.add(3, 2)
	h.add(10, 2)
	if h.quantile(0.5) != 3 || h.quantile(0.75) != 6.5 || h.quantile(1) != 10 {
		t.Errorf("latencyHist: p50 %v, p75 %v, p100 %v", h.quantile(0.5), h.quantile(0.75), h.quantile(1))
	}
}

func TestNearestRank(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := durationQuantile(ds, 0.5); got != 3.0/1000 {
		t.Errorf("p50 = %v µs", got)
	}
	if got := durationQuantile(ds, 0.99); got != 5.0/1000 {
		t.Errorf("p99 = %v µs", got)
	}
	if got := durationQuantile([]time.Duration{7}, 0.01); got != 7.0/1000 {
		t.Errorf("single-sample p1 = %v µs", got)
	}
	if got := durationQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v µs", got)
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(100, 110)
	f.add(100, 1)
	f.add(105, 2)
	f.add(110, 4)
	for _, c := range []struct {
		ts   stream.Time
		want int64
	}{{40, 0}, {99, 0}, {100, 1}, {104, 1}, {105, 3}, {110, 7}} {
		if got := f.upTo(c.ts); got != c.want {
			t.Errorf("upTo(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
}

// TestMetricNames runs both modes on short feeds of the workload that
// exercises every layer and checks that the metric names are well formed,
// unique, and exactly the ones BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	w := short(workloads[3])
	for _, traced := range []bool{false, true} {
		var rep report
		feeds := runFeeds(w, 3, time.Millisecond, traced, &rep)
		want := map[string]string{}
		if traced {
			perLayer(feeds, &rep)
			for _, m := range spec.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			endToEnd(feeds, &rep)
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(rep.failures) > 0 {
			t.Fatalf("traced=%v: checks failed: %v", traced, rep.failures)
		}
		got := map[string]string{}
		for _, m := range rep.metrics {
			if !valid.MatchString(m.name) {
				t.Errorf("bad metric name %q", m.name)
			}
			if _, dup := got[m.name]; dup {
				t.Errorf("metric %q reported twice", m.name)
			}
			got[m.name] = m.unit
		}
		if !equalMaps(got, want) {
			t.Errorf("traced=%v: reported %v, BENCHMARK.json declares %v", traced, keys(got), keys(want))
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"["+v+"]")
	}
	sort.Strings(out)
	return out
}
