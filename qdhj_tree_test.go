package qdhj

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// feed3 builds a 3-stream equi workload with per-stream disorder bounds.
func feed3(n int, seed int64, delayMax [3]Time) []*Tuple {
	return gen.SparseEqui3(n, seed, 200, delayMax)
}

func diffSigSets(t *testing.T, want, got map[string]int) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("degenerate workload: no results")
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("result %s count %d, want %d", k, got[k], v)
		}
	}
	for k, v := range got {
		if want[k] != v {
			t.Fatalf("unexpected result %s ×%d", k, v)
		}
	}
}

func mustPanicT(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestTreeJoinLifecycleParity: TreeJoin panics on Push-after-Close and
// double-Close exactly like Join (DESIGN.md §3 conventions), in both the
// static and the adaptive configuration.
func TestTreeJoinLifecycleParity(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{Second, Second}
	for _, tc := range []struct {
		name string
		opts []TreeOption
	}{
		{"static", nil},
		{"adaptive", []TreeOption{WithTreeAdaptation(Options{Gamma: 0.9})}},
	} {
		j := NewTreeJoin(EquiChain(2, 0), w, 0, nil, tc.opts...)
		j.Push(&Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
		j.Close()
		mustPanicT(t, tc.name+": Push after Close", func() {
			j.Push(&Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
		})
		mustPanicT(t, tc.name+": double Close", j.Close)
	}
}

// TestPipelinedTreeJoinLifecycleParity: same for the pipelined variant.
func TestPipelinedTreeJoinLifecycleParity(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{Second, Second}
	for _, tc := range []struct {
		name string
		opts []TreeOption
	}{
		{"static", nil},
		{"adaptive", []TreeOption{WithTreeAdaptation(Options{Gamma: 0.9})}},
	} {
		j := NewPipelinedTreeJoin(EquiChain(2, 0), w, 0, 16, tc.opts...)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range j.Results() {
			}
		}()
		j.Push(&Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
		j.Close()
		<-done
		j.Wait()
		mustPanicT(t, tc.name+": Push after Close", func() {
			j.Push(&Tuple{TS: 2, Src: 1, Attrs: []float64{1}})
		})
		mustPanicT(t, tc.name+": double Close", j.Close)
	}
}

// TestWithPerStageKDiverges drives the public per-stage option end to end:
// on asymmetric-delay inputs the stage Ks diverge and the total buffered
// delay undercuts Same-K adaptation, at equal-or-better recall.
func TestWithPerStageKDiverges(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 9, [3]Time{100, 100, 2500})
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}

	run := func(opts ...TreeOption) *TreeJoin {
		j := NewTreeJoin(EquiChain(3, 0), w, 0, nil, opts...)
		for _, e := range cloneBatch(in) {
			j.Push(e)
		}
		j.Close()
		return j
	}
	same := run(WithTreeAdaptation(opt))
	per := run(WithTreeAdaptation(opt), WithPerStageK())

	if got := len(same.CurrentKs()); got != 1 {
		t.Fatalf("Same-K adaptation should have 1 decision scope, got %d", got)
	}
	ks := per.CurrentKs()
	if len(ks) != 2 {
		t.Fatalf("per-stage adaptation should have one scope per stage, got %d", len(ks))
	}
	t.Logf("same-K: K=%v sum=%.0f results=%d; per-stage: Ks=%v sum=%.0f results=%d",
		same.CurrentKs(), same.BufferedDelaySum(), same.Results(),
		ks, per.BufferedDelaySum(), per.Results())
	if !(ks[0] < ks[1]) {
		t.Errorf("per-stage Ks did not diverge: %v", ks)
	}
	if !(per.BufferedDelaySum() < same.BufferedDelaySum()) {
		t.Errorf("per-stage buffered delay %.0f not below Same-K %.0f",
			per.BufferedDelaySum(), same.BufferedDelaySum())
	}
	if per.Adaptations() == 0 || same.Adaptations() == 0 {
		t.Error("adaptation did not run")
	}
}

// TestTreeDecideHookFires: the decide hook observes every adaptation step
// with one K per scope.
func TestTreeDecideHookFires(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(2000, 4, [3]Time{1500, 1500, 1500})
	w := []Time{Second, Second, Second}
	var steps int
	var lastKs []Time
	j := NewTreeJoin(EquiChain(3, 0), w, 0, nil,
		WithTreeAdaptation(Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}),
		WithPerStageK(),
		WithTreeDecideHook(func(at Time, ks []Time) {
			steps++
			lastKs = append(lastKs[:0], ks...)
		}))
	for _, e := range cloneBatch(in) {
		j.Push(e)
	}
	j.Close()
	if steps == 0 {
		t.Fatal("decide hook never fired")
	}
	if len(lastKs) != 2 {
		t.Fatalf("hook saw %d scopes, want 2", len(lastKs))
	}
	if int64(steps) != j.Adaptations() {
		t.Errorf("hook fired %d times, Adaptations()=%d", steps, j.Adaptations())
	}
}

// TestStaticSlackTreeAdaptationPanics: WithTreeAdaptation(StaticSlack) is a
// contradiction and must panic rather than silently running a no-op loop.
func TestStaticSlackTreeAdaptationPanics(t *testing.T) {
	leakcheck.Check(t)
	mustPanicT(t, "StaticSlack tree adaptation", func() {
		NewTreeJoin(EquiChain(2, 0), []Time{Second, Second}, 0, nil,
			WithTreeAdaptation(Options{Policy: StaticSlack, StaticK: Second}))
	})
}

// TestDecideHookWithoutAdaptationPanics: a decide hook on a fixed-K tree
// would never fire; both constructors must reject it instead of silently
// dropping it.
func TestDecideHookWithoutAdaptationPanics(t *testing.T) {
	leakcheck.Check(t)
	hook := WithTreeDecideHook(func(Time, []Time) {})
	mustPanicT(t, "TreeJoin hook without adaptation", func() {
		NewTreeJoin(EquiChain(2, 0), []Time{Second, Second}, 0, nil, hook)
	})
	mustPanicT(t, "PipelinedTreeJoin hook without adaptation", func() {
		NewPipelinedTreeJoin(EquiChain(2, 0), []Time{Second, Second}, 0, 16, hook)
	})
}

// TestTreeJoinPerStageMatchesTreePlan pins "one tree engine": the public
// per-stage TreeJoin and NewJoin with the planner's "tree" shape run the
// same executor under the same Γ′ path weights, so they agree on the result
// multiset, the K trajectory (the decide hook's per-stage Ks against the
// adapt hook's maximum) and the number of adaptations.
func TestTreeJoinPerStageMatchesTreePlan(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 9, [3]Time{100, 100, 2500})
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}

	treeSet := map[string]int{}
	var treeTraj []string
	tree := NewTreeJoin(EquiChain(3, 0), w, 0, func(r TreeResult) { treeSet[faultResultSig(Result{Tuples: r.Tuples})]++ },
		WithTreeAdaptation(opt), WithPerStageK(),
		WithTreeDecideHook(func(at Time, ks []Time) {
			treeTraj = append(treeTraj, fmt.Sprintf("%d:%d", at, max(ks[0], ks[1])))
		}))
	for _, e := range cloneBatch(in) {
		tree.Push(e)
	}
	tree.Close()

	cond := EquiChain(3, 0)
	p, err := ParsePlan("tree", cond, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	planSet := map[string]int{}
	var planTraj []string
	j := NewJoin(cond, w, opt, WithPlan(p),
		WithResults(func(r Result) { planSet[faultResultSig(r)]++ }),
		WithAdaptHook(func(ev AdaptEvent) { planTraj = append(planTraj, fmt.Sprintf("%d:%d", ev.Now, ev.NewK)) }))
	for _, e := range cloneBatch(in) {
		j.Push(e)
	}
	j.Close()

	diffSigSets(t, planSet, treeSet)
	if tree.Adaptations() == 0 || tree.Adaptations() != j.Adaptations() {
		t.Fatalf("adaptations: tree %d, plan %d", tree.Adaptations(), j.Adaptations())
	}
	for i := range planTraj {
		if treeTraj[i] != planTraj[i] {
			t.Fatalf("decision %d: tree %s, plan %s", i, treeTraj[i], planTraj[i])
		}
	}
	if got, want := fmt.Sprint(tree.CurrentKs()), fmt.Sprint(j.CurrentKs()); got != want {
		t.Fatalf("final Ks: tree %s, plan %s", got, want)
	}
}

// TestPipelinedTreeJoinMatchesTreeJoin: the pipelined variant runs the
// synchronous tree on its own goroutine, so under every buffer-sizing mode
// it reproduces TreeJoin's result multiset, full K trajectory and
// BufferedDelaySum.
func TestPipelinedTreeJoinMatchesTreeJoin(t *testing.T) {
	leakcheck.Check(t)
	in := feed3(4000, 7, [3]Time{150, 150, 2000})
	maxD, _ := stream.Batch(in).MaxDelay()
	w := []Time{2 * Second, 2 * Second, 2 * Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}
	type trace struct {
		set  map[string]int
		ks   []string
		last []Time // the final decision
		sum  float64
	}
	for _, tc := range []struct {
		name string
		k    Time
		opts []TreeOption
	}{
		{"fixed", maxD, nil},
		{"same-k", 0, []TreeOption{WithTreeAdaptation(opt)}},
		{"per-stage", 0, []TreeOption{WithTreeAdaptation(opt), WithPerStageK()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(tr *trace) []TreeOption {
				if tc.opts == nil {
					return nil
				}
				return append(tc.opts[:len(tc.opts):len(tc.opts)], WithTreeDecideHook(func(at Time, ks []Time) {
					tr.ks = append(tr.ks, fmt.Sprint(at, ks))
					tr.last = append(tr.last[:0], ks...)
				}))
			}
			sync := trace{set: map[string]int{}}
			j := NewTreeJoin(EquiChain(3, 0), w, tc.k, func(r TreeResult) { sync.set[faultResultSig(Result{Tuples: r.Tuples})]++ }, opts(&sync)...)
			for _, e := range cloneBatch(in) {
				j.Push(e)
			}
			j.Close()
			sync.sum = j.BufferedDelaySum()

			piped := trace{set: map[string]int{}}
			p := NewPipelinedTreeJoin(EquiChain(3, 0), w, tc.k, 64, opts(&piped)...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := range p.Results() {
					piped.set[faultResultSig(Result{Tuples: r.Tuples})]++
				}
			}()
			for _, e := range cloneBatch(in) {
				p.Push(e)
			}
			p.Close()
			<-done
			p.Wait()
			piped.sum = p.BufferedDelaySum()

			diffSigSets(t, sync.set, piped.set)
			if tc.opts != nil && len(sync.ks) == 0 {
				t.Fatal("no adaptation steps ran")
			}
			if got, want := strings.Join(piped.ks, ";"), strings.Join(sync.ks, ";"); got != want {
				t.Fatalf("K trajectory differs:\npipelined %s\ntree      %s", got, want)
			}
			if got, want := fmt.Sprint(piped.last), fmt.Sprint(j.CurrentKs()); tc.opts != nil && got != want {
				t.Fatalf("final Ks: pipelined %s, tree CurrentKs %s", got, want)
			}
			if piped.sum != sync.sum {
				t.Fatalf("BufferedDelaySum: pipelined %v, tree %v", piped.sum, sync.sum)
			}
		})
	}
}

// TestPipelinedTreeJoinPanicReachesWait: a panic on the tree goroutine — here
// a Where predicate failing on its 200th call — must not be swallowed. The
// results produced before it are delivered, Results closes, Push keeps
// returning, no goroutine leaks, and Wait re-raises the original value
// exactly where the synchronous TreeJoin would have panicked from Push.
func TestPipelinedTreeJoinPanicReachesWait(t *testing.T) {
	leakcheck.Check(t)
	failure := fmt.Errorf("predicate failed")
	calls := 0
	cond := EquiChain(2, 0).Where([]int{0, 1}, func([]*Tuple) bool {
		if calls++; calls == 200 {
			panic(failure)
		}
		return true
	})
	in := feed(1500, 5)
	maxD, _ := stream.Batch(in).MaxDelay()
	p := NewPipelinedTreeJoin(cond, []Time{Second, Second}, maxD, 16)
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Results() {
			got++
		}
	}()
	for _, e := range in {
		p.Push(e)
	}
	p.Close()
	<-done
	func() {
		defer func() {
			if r := recover(); r != failure {
				t.Fatalf("Wait panicked with %v, want the predicate's panic value", r)
			}
		}()
		p.Wait()
	}()
	if got != 199 {
		t.Fatalf("got %d results before the failure, want 199", got)
	}
}
