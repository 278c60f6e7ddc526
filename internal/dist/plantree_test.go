package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/leakcheck"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// workload builds an m-stream equi feed with bounded disorder.
func workload(m, rounds int, seed int64, domain int) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
	var seq uint64
	ts := stream.Time(3000)
	for i := 0; i < rounds; i++ {
		ts += 10
		for src := 0; src < m; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= stream.Time(rng.Intn(2000))
			}
			out = append(out, &stream.Tuple{TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(domain)), float64(rng.Intn(100))}})
			seq++
		}
	}
	return out
}

func clone(in stream.Batch) stream.Batch { return in.Clone() }

// sig renders a result's identity: one src:seq pair per constituent, in
// stream order.
func sig(tuples []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range tuples {
		if t != nil {
			fmt.Fprintf(&b, "%d:%d,", t.Src, t.Seq)
		}
	}
	return b.String()
}

// mjoinMultiset runs the flat single-operator reference (K-slack →
// Synchronizer → MJoin) and returns the materialized result multiset.
func mjoinMultiset(cond *join.Condition, windows []stream.Time, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	op := join.New(cond, windows, join.WithEmit(func(r stream.Result) { set[sig(r.Tuples)]++ }))
	sy := syncer.New(cond.M, op.Process)
	ks := make([]*kslack.Buffer, cond.M)
	for i := range ks {
		ks[i] = kslack.New(k, sy.Push)
	}
	for _, e := range in {
		ks[e.Src].Push(e)
	}
	for _, b := range ks {
		b.Flush()
	}
	for i := 0; i < cond.M; i++ {
		sy.Close(i)
	}
	return set
}

// planMultiset runs one shape through the plan tree and returns the result
// multiset.
func planMultiset(cond *join.Condition, windows []stream.Time, shape *Shape, k stream.Time, in stream.Batch) map[string]int {
	set := map[string]int{}
	t := NewPlanTree(cond, windows, shape, k, func(p Partial) { set[sig(p.Parts)]++ })
	for _, e := range in {
		t.Push(e)
	}
	t.Finish()
	return set
}

func diffMultisets(t *testing.T, name string, want, got map[string]int) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: degenerate workload, no results", name)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: result %s count %d, want %d", name, k, got[k], v)
			return
		}
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: unexpected result %s ×%d", name, k, v)
			return
		}
	}
}

// shapes4 enumerates the shapes exercised on 4-stream conditions: the
// spine, the balanced bushy tree, a right-heavy bushy tree, and sharded
// variants.
func shard(n int, s *Shape) *Shape { s.Shards = n; return s }
func leaf(s int) *Shape            { return &Shape{Stream: s} }
func branch(l, r *Shape) *Shape    { return &Shape{Left: l, Right: r} }

// TestPlanTreeSpineAgreesWithMJoin: the plan engine shaped as the left-deep
// spine reproduces the flat reference multiset, including band and generic
// predicates.
func TestPlanTreeSpineAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	conds := map[string]func() *join.Condition{
		"equichain": func() *join.Condition { return join.EquiChain(3, 0) },
		"band+equi": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 6)
		},
		"generic": func() *join.Condition {
			return join.Cross(3).Equi(0, 0, 1, 0).Equi(1, 0, 2, 0).
				Where([]int{0, 2}, func(a []*stream.Tuple) bool {
					return a[0].Attr(1) < a[2].Attr(1)+50
				})
		},
	}
	in := workload(3, 900, 11, 12)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	for name, mk := range conds {
		want := mjoinMultiset(mk(), w, maxD, clone(in))
		got := planMultiset(mk(), w, Spine(3), maxD, clone(in))
		diffMultisets(t, "spine/"+name, want, got)
	}
}

// spineAgrees runs mk() on the left-deep spine with buffers covering the
// feed's disorder and checks its result multiset against the flat
// reference.
func spineAgrees(t *testing.T, mk func() *join.Condition, w []stream.Time, in stream.Batch) {
	t.Helper()
	maxD, _ := in.MaxDelay()
	want := mjoinMultiset(mk(), w, maxD, clone(in))
	diffMultisets(t, t.Name(), want, planMultiset(mk(), w, Spine(len(w)), maxD, clone(in)))
}

func TestTreeAgreesWithMJoin2Way(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition { return join.EquiChain(2, 0) },
		[]stream.Time{stream.Second, stream.Second}, workload(2, 2000, 1, 10))
}

func TestTreeAgreesWithMJoin3Way(t *testing.T) {
	leakcheck.Check(t)
	w := []stream.Time{2 * stream.Second, 2 * stream.Second, 2 * stream.Second}
	spineAgrees(t, func() *join.Condition { return join.EquiChain(3, 0) }, w, workload(3, 1200, 2, 200))
	if n := NewPlanTree(join.EquiChain(3, 0), w, Spine(3), 0, nil).Operators(); n != 2 {
		t.Fatalf("Operators = %d, want 2", n)
	}
}

// Unequal window extents exercise the per-constituent deadline: a partial
// must expire when its EARLIEST constituent leaves its own (possibly small)
// window, not when the partial's max timestamp does.
func TestTreeAgreesWithMJoinUnequalWindows(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition { return join.EquiChain(3, 0) },
		[]stream.Time{500, 2 * stream.Second, stream.Second}, workload(3, 1000, 3, 50))
}

// Band predicates are evaluated as residual filters at the stage where
// they become fully bound; the spine must agree with the central operator's
// range-index execution result for result. The equi on attr 0 runs the
// indexed path with the band (attr 1, values 0..99, eps 7) as residual.
func TestTreeBandPredicate(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition { return join.Cross(2).Equi(0, 0, 1, 0).Band(0, 1, 1, 1, 7) },
		[]stream.Time{stream.Second, stream.Second}, workload(2, 1500, 9, 40))
}

// TestTreePureBandPredicate runs a band-only condition through the sorted
// range index of the stage windows.
func TestTreePureBandPredicate(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 12) },
		[]stream.Time{500, 500}, workload(2, 900, 10, 5))
}

// TestTreeBandChain3Way drives band-only stages whose *left* inputs are
// partial results, exercising the sorted range index on both stage sides
// (insert, expire, probe).
func TestTreeBandChain3Way(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition { return join.Cross(3).Band(0, 1, 1, 1, 9).Band(1, 1, 2, 1, 9) },
		[]stream.Time{400, 400, 400}, workload(3, 700, 21, 5))
}

// A generic (non-equi) predicate forces the cross-join scan path of the
// stage windows.
func TestTreeGenericPredicate(t *testing.T) {
	leakcheck.Check(t)
	spineAgrees(t, func() *join.Condition {
		return join.Cross(2).Where([]int{0, 1}, func(a []*stream.Tuple) bool {
			return math.Abs(a[0].Attr(1)-a[1].Attr(1)) < 10
		})
	}, []stream.Time{300, 300}, workload(2, 800, 4, 5))
}

// TestTreeSealsCondition: mutating a condition after compiling it into a
// tree must panic — the stage plans would silently ignore the predicate.
func TestTreeSealsCondition(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(3).Band(0, 1, 1, 1, 9)
	NewPlanTree(cond, []stream.Time{100, 100, 100}, Spine(3), 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a tree-compiled condition must panic")
		}
	}()
	cond.Band(1, 1, 2, 1, 9)
}

func TestSinkReceivesCompleteResults(t *testing.T) {
	leakcheck.Check(t)
	var got []Partial
	tree := NewPlanTree(join.EquiChain(2, 0), []stream.Time{stream.Second, stream.Second}, Spine(2),
		2*stream.Second, func(p Partial) { got = append(got, p) })
	tree.Push(&stream.Tuple{TS: 1000, Seq: 0, Src: 0, Attrs: []float64{7}})
	tree.Push(&stream.Tuple{TS: 1100, Seq: 1, Src: 1, Attrs: []float64{7}})
	tree.Finish()
	if len(got) != 1 {
		t.Fatalf("sink saw %d results, want 1", len(got))
	}
	r := got[0]
	if r.TS != 1100 || len(r.Parts) != 2 || r.Parts[0].Src != 0 || r.Parts[1].Src != 1 {
		t.Fatalf("bad result %+v", r)
	}
}

// A NaN join attribute must neither match anything nor crash index
// maintenance when the entry expires (regression: remove() used to panic on
// the unreachable NaN map key).
func TestNaNKeyNeverMatchesNorCrashes(t *testing.T) {
	leakcheck.Check(t)
	tree := NewPlanTree(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), 0, nil)
	tree.Push(&stream.Tuple{TS: 10, Seq: 0, Src: 0, Attrs: []float64{math.NaN()}})
	tree.Push(&stream.Tuple{TS: 20, Seq: 1, Src: 1, Attrs: []float64{math.NaN()}})
	tree.Push(&stream.Tuple{TS: 500, Seq: 2, Src: 0, Attrs: []float64{1}})
	tree.Push(&stream.Tuple{TS: 510, Seq: 3, Src: 1, Attrs: []float64{1}})
	tree.Finish()
	if tree.Results() != 1 {
		t.Fatalf("results = %d, want 1 (NaN pair must not match)", tree.Results())
	}
}

// TestSetKPropagates: with K = 0 the disordered feed loses results; raising
// K to cover the disorder mid-stream must start recovering them.
func TestSetKPropagates(t *testing.T) {
	leakcheck.Check(t)
	in := workload(2, 1500, 6, 5)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{stream.Second, stream.Second}
	run := func(k, raiseTo stream.Time) int64 {
		tree := NewPlanTree(join.EquiChain(2, 0), w, Spine(2), k, nil)
		for i, e := range clone(in) {
			if i == len(in)/4 && raiseTo > 0 {
				tree.SetK(raiseTo)
			}
			tree.Push(e)
		}
		tree.Finish()
		return tree.Results()
	}
	full, none, raised := run(maxD, 0), run(0, 0), run(0, maxD)
	if none >= full {
		t.Fatalf("K=0 should lose results: %d vs %d", none, full)
	}
	if raised <= none {
		t.Fatalf("raising K should recover results: %d vs %d", raised, none)
	}
}

// TestPlanTreeBushyAgreesWithMJoin: bushy shapes — both sides of the root
// stage are sub-plans — reproduce the flat reference multiset.
func TestPlanTreeBushyAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	in := workload(4, 500, 7, 8)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{800, 800, 800, 800}
	cases := []struct {
		name  string
		cond  func() *join.Condition
		shape func() *Shape
	}{
		{"balanced-equichain", func() *join.Condition { return join.EquiChain(4, 0) },
			func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
		{"right-heavy-equichain", func() *join.Condition { return join.EquiChain(4, 0) },
			func() *Shape { return branch(leaf(0), branch(leaf(1), branch(leaf(2), leaf(3)))) }},
		{"balanced-bandchain", func() *join.Condition {
			return join.Cross(4).Band(0, 1, 1, 1, 9).Equi(1, 0, 2, 0).Band(2, 1, 3, 1, 9)
		}, func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
		{"bushy-generic", func() *join.Condition {
			return join.EquiChain(4, 0).Where([]int{1, 3}, func(a []*stream.Tuple) bool {
				return a[1].Attr(1) != a[3].Attr(1)
			})
		}, func() *Shape { return branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3))) }},
	}
	for _, tc := range cases {
		want := mjoinMultiset(tc.cond(), w, maxD, clone(in))
		got := planMultiset(tc.cond(), w, tc.shape(), maxD, clone(in))
		diffMultisets(t, "bushy/"+tc.name, want, got)
	}
}

// TestPlanTreeStageShardedAgreesWithMJoin: sharding individual stages —
// including every stage of a star condition that has NO full key class —
// must not change the result multiset, at any shard count.
func TestPlanTreeStageShardedAgreesWithMJoin(t *testing.T) {
	leakcheck.Check(t)
	in := workload(4, 600, 13, 10)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{800, 800, 800, 800}
	star := func() *join.Condition { return join.Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }
	want := mjoinMultiset(star(), w, maxD, clone(in))

	for _, n := range []int{2, 4, 8} {
		spine := shard(n, branch(shard(n, branch(shard(n, branch(leaf(0), leaf(1))), leaf(2))), leaf(3)))
		got := planMultiset(star(), w, spine, maxD, clone(in))
		diffMultisets(t, fmt.Sprintf("star-sharded-%d", n), want, got)
	}

	// Bushy + sharded root over an equichain.
	chain := func() *join.Condition { return join.EquiChain(4, 0) }
	wantChain := mjoinMultiset(chain(), w, maxD, clone(in))
	bushy := shard(4, branch(shard(2, branch(leaf(0), leaf(1))), branch(leaf(2), leaf(3))))
	diffMultisets(t, "bushy-sharded", wantChain, planMultiset(chain(), w, bushy, maxD, clone(in)))
}

// TestPlanTreeBandShardedStage: a band-keyed stage partitions by range
// cells with ±eps replica inserts; results must match the flat reference.
func TestPlanTreeBandShardedStage(t *testing.T) {
	leakcheck.Check(t)
	in := workload(2, 900, 19, 30)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{600, 600}
	mk := func() *join.Condition { return join.Cross(2).Band(0, 1, 1, 1, 11) }
	want := mjoinMultiset(mk(), w, maxD, clone(in))
	for _, n := range []int{2, 5} {
		got := planMultiset(mk(), w, shard(n, branch(leaf(0), leaf(1))), maxD, clone(in))
		diffMultisets(t, fmt.Sprintf("band-sharded-%d", n), want, got)
	}
}

// TestPlanTreeShardUnkeyedPanics: sharding a stage whose cross predicates
// carry no equi/band key must fail loudly, not silently broadcast.
func TestPlanTreeShardUnkeyedPanics(t *testing.T) {
	leakcheck.Check(t)
	cond := join.Cross(2).Where([]int{0, 1}, func([]*stream.Tuple) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("sharding an unkeyed stage must panic")
		}
	}()
	NewPlanTree(cond, []stream.Time{100, 100}, shard(2, branch(leaf(0), leaf(1))), 0, nil)
}

// TestPlanTreeShapeValidation: shapes must cover every stream exactly once.
func TestPlanTreeShapeValidation(t *testing.T) {
	leakcheck.Check(t)
	w := []stream.Time{100, 100, 100}
	for name, sh := range map[string]*Shape{
		"duplicate": branch(branch(leaf(0), leaf(1)), leaf(1)),
		"missing":   branch(leaf(0), leaf(2)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shape must panic", name)
				}
			}()
			NewPlanTree(join.EquiChain(3, 0), w, sh, 0, nil)
		}()
	}
}

// TestPlanTreeLifecyclePanics: Push-after-Finish and double-Finish panic
// (DESIGN.md §3 lifecycle conventions, matching Join).
func TestPlanTreeLifecyclePanics(t *testing.T) {
	leakcheck.Check(t)
	pt := NewPlanTree(join.EquiChain(2, 0), []stream.Time{100, 100}, Spine(2), 0, nil)
	pt.Push(&stream.Tuple{TS: 1, Src: 0, Attrs: []float64{1}})
	pt.Finish()
	for name, f := range map[string]func(){
		"Push after Finish": func() { pt.Push(&stream.Tuple{TS: 2, Src: 1, Attrs: []float64{1}}) },
		"double Finish":     pt.Finish,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAdaptivePlanTreeDeterministicWithShards: the adaptive plan tree's
// decision trajectory and result count are bit-for-bit reproducible across
// runs AND across shard counts ≥ 2 — release points are a function of the
// probe sequence only (the bounded-depth reorder pipeline), and every
// boundary quiesces the workers before deciding. The unsharded path
// releases stage outputs with zero depth and is its own deterministic
// execution; under a small adaptive K the two interleavings may buffer
// slightly different late tuples, so it is not compared here (the full-K
// differential tests pin unsharded == sharded == flat).
func TestAdaptivePlanTreeDeterministicWithShards(t *testing.T) {
	leakcheck.Check(t)
	in := workload(3, 3000, 23, 40)
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	cond := func() *join.Condition { return join.EquiChain(3, 0) }
	shapeN := func(n int) *Shape {
		inner := branch(leaf(0), leaf(1))
		outer := branch(inner, leaf(2))
		if n > 1 {
			inner.Shards = n
			outer.Shards = n
		}
		return outer
	}
	type trace struct {
		results int64
		ks      []string
	}
	run := func(n int) trace {
		var tr trace
		cfg := AdaptiveConfig{Adapt: testAdapt, PerStage: true,
			OnDecide: func(at stream.Time, ks []stream.Time) {
				tr.ks = append(tr.ks, fmt.Sprintf("%v:%v", at, ks))
			}}
		a := NewAdaptivePlanTree(cond(), w, shapeN(n), cfg, nil)
		for _, e := range in.Clone() {
			a.Push(e)
		}
		a.Finish()
		tr.results = a.Results()
		if a.Loop().Decisions() == 0 {
			t.Fatal("no adaptation steps ran")
		}
		return tr
	}
	want := run(2)
	if want.results == 0 {
		t.Fatal("degenerate workload")
	}
	for _, n := range []int{2, 4, 8} {
		got := run(n)
		if got.results != want.results {
			t.Errorf("shards=%d: results %d, want %d", n, got.results, want.results)
		}
		if len(got.ks) != len(want.ks) {
			t.Fatalf("shards=%d: %d decisions, want %d", n, len(got.ks), len(want.ks))
		}
		for i := range want.ks {
			if got.ks[i] != want.ks[i] {
				t.Errorf("shards=%d: decision %d = %s, want %s", n, i, got.ks[i], want.ks[i])
				break
			}
		}
	}
}

// TestAdaptivePlanTreeWeightsSkipBufferlessStages: in a balanced bushy
// shape the root stage governs no raw buffer; its scope weight is 0 and its
// decided K stays pinned to 0 while the leaf stages adapt.
func TestAdaptivePlanTreeWeightsSkipBufferlessStages(t *testing.T) {
	leakcheck.Check(t)
	in := workload(4, 2500, 29, 60)
	w := []stream.Time{stream.Second, stream.Second, stream.Second, stream.Second}
	bushy := branch(branch(leaf(0), leaf(1)), branch(leaf(2), leaf(3)))
	a := NewAdaptivePlanTree(join.EquiChain(4, 0), w, bushy, AdaptiveConfig{Adapt: testAdapt, PerStage: true}, nil)
	for _, e := range in.Clone() {
		a.Push(e)
	}
	a.Finish()
	if a.Loop().Decisions() == 0 {
		t.Fatal("no adaptation steps ran")
	}
	ks := a.Loop().Ks()
	if len(ks) != 3 {
		t.Fatalf("scopes = %d, want 3", len(ks))
	}
	if ks[2] != 0 {
		t.Errorf("bufferless root stage decided K=%v, want pinned 0", ks[2])
	}
	if a.Loop().AvgK(0) == 0 && a.Loop().AvgK(1) == 0 {
		t.Error("leaf stages never adapted above 0")
	}
	if a.Results() == 0 {
		t.Fatal("degenerate workload")
	}
}
