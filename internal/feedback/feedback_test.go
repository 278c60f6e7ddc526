package feedback

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/monitor"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/stream"
)

func testLoop(t *testing.T, scopes []Scope) *Loop {
	t.Helper()
	return New(Config{
		Windows: []stream.Time{stream.Second, stream.Second, stream.Second},
		Adapt:   adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
		Scopes:  scopes,
	})
}

// TestBoundarySchedule: the first observation anchors the schedule; one
// decision per crossed interval; a sparse arrival crossing several
// boundaries collapses into ONE decision at the last crossed boundary.
func TestBoundarySchedule(t *testing.T) {
	l := testLoop(t, nil)
	if _, ok := l.Boundary(5000); ok {
		t.Fatal("first observation must only anchor the schedule")
	}
	if _, ok := l.Boundary(5500); ok {
		t.Fatal("mid-interval: no decision due")
	}
	at, ok := l.Boundary(6000)
	if !ok || at != 6000 {
		t.Fatalf("boundary at 6000: got (%d,%v)", at, ok)
	}
	// Jump across 3 boundaries: one decision, anchored at the last (9500
	// lies in [9000, 10000), so the last crossed boundary is 9000).
	at, ok = l.Boundary(9500)
	if !ok || at != 9000 {
		t.Fatalf("collapsed boundary: got (%d,%v), want (9000,true)", at, ok)
	}
	if _, ok := l.Boundary(9900); ok {
		t.Fatal("9900 is before the next boundary 10000")
	}
}

// TestScopeSourceMerge: multi-stream groups merge CDFs weighted by count,
// take the min KSync and the max recent delay.
func TestScopeSourceMerge(t *testing.T) {
	g := 10 * stream.Millisecond
	mgr := stats.NewManager(3, g)
	// Stream 0: delays 0 (3 tuples in ts order). Stream 1: one 0-delay, then
	// a 30ms-late tuple. Stream 2: unused by the scope.
	push := func(src int, ts stream.Time) {
		mgr.Observe(&stream.Tuple{Src: src, TS: ts})
	}
	push(0, 1000)
	push(0, 1010)
	push(0, 1020)
	push(1, 1000)
	push(1, 1030)
	push(1, 1000) // 30ms late
	push(2, 1000)

	src := newScopeSource(mgr, [][]int{{0, 1}, {2}})
	cdf := src.CDF(0, nil)
	if len(cdf) == 0 {
		t.Fatal("merged CDF is empty despite observed delays")
	}
	// 6 arrivals in the group, 5 with delay 0, one in bucket 3 (30ms at
	// g=10ms): Pr[D ≤ 0] = 5/6, Pr[D ≤ 30ms] = 1.
	if got, want := cdf[0], 5.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("merged cdf[0] = %v, want %v", got, want)
	}
	if got := cdf[len(cdf)-1]; math.Abs(got-1) > 1e-12 {
		t.Errorf("merged cdf top = %v, want 1", got)
	}
	if got, want := src.MaxDelayRecent(), 30*stream.Millisecond; got != want {
		t.Errorf("scope MaxDelayRecent = %v, want %v", got, want)
	}
	// The singleton group delegates to the manager unchanged.
	if got, want := src.KSync(1), mgr.KSync(2); got != want {
		t.Errorf("singleton KSync = %v, want manager's %v", got, want)
	}
}

// TestSingleScopeMatchesManager: for the global scope, the scope source is
// numerically identical to the manager itself — the property the pipeline's
// bit-for-bit golden trace rests on.
func TestSingleScopeMatchesManager(t *testing.T) {
	g := 10 * stream.Millisecond
	mgr := stats.NewManager(2, g)
	for i := 0; i < 50; i++ {
		ts := stream.Time(1000 + 10*i)
		mgr.Observe(&stream.Tuple{Src: 0, TS: ts})
		if i%5 == 0 {
			ts -= 40
		}
		mgr.Observe(&stream.Tuple{Src: 1, TS: ts})
	}
	src := newScopeSource(mgr, [][]int{{0}, {1}})
	for i := 0; i < 2; i++ {
		a, b := src.CDF(i, nil), mgr.CDF(i, nil)
		if len(a) != len(b) {
			t.Fatalf("stream %d: CDF lengths differ", i)
		}
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("stream %d bucket %d: %v != %v", i, d, a[d], b[d])
			}
		}
		if src.KSync(i) != mgr.KSync(i) {
			t.Errorf("stream %d: KSync differs", i)
		}
	}
	if src.MaxDelayRecent() != mgr.MaxDelayRecent() {
		t.Error("MaxDelayRecent differs from manager")
	}
}

// TestModelDecideZeroAllocs: once a first decision has sized the model's
// buffers, Decide allocates nothing — with the Statistics Manager as the
// source, and with a scope source whose first input merges two streams (a
// tree stage's left input) — under both Alg. 3 searches.
func TestModelDecideZeroAllocs(t *testing.T) {
	g := 10 * stream.Millisecond
	mgr := stats.NewManager(3, g)
	rng := rand.New(rand.NewSource(3))
	prof := profiler.New(g)
	ts := stream.Time(1000)
	for i := 0; i < 3000; i++ {
		ts += 10
		for src := 0; src < 3; src++ {
			at := ts
			if rng.Intn(4) == 0 {
				at -= stream.Time(rng.Intn(400))
			}
			mgr.Observe(&stream.Tuple{Src: src, TS: at})
			prof.RecordInOrder(ts-at, 1+rng.Int63n(20), rng.Int63n(5))
		}
	}
	snap := prof.Snapshot()
	cfg := adapt.Config{Gamma: 0.95, P: 10 * stream.Second, L: stream.Second}.Normalize()
	mon := monitor.New(cfg.P-cfg.L, int((cfg.P-cfg.L)/cfg.L))
	w := stream.Second
	sources := []struct {
		name    string
		src     adapt.Source
		windows []stream.Time
	}{
		{"manager", mgr, []stream.Time{w, w, w}},
		{"merged-scope", newScopeSource(mgr, [][]int{{0, 1}, {2}}), []stream.Time{w, w}},
	}
	for _, sc := range sources {
		for _, search := range []adapt.Search{adapt.LinearSearch, adapt.BinarySearch} {
			c := cfg
			c.Search = search
			m := adapt.NewModel(c, sc.windows, sc.src, mon)
			k := m.Decide(ts, snap) // warm-up: sizes the CDF and prefix buffers
			if k == 0 {
				t.Fatalf("%s/%v: decided K = 0; the gate would not exercise the search", sc.name, search)
			}
			if n := testing.AllocsPerRun(20, func() { m.Decide(ts, snap) }); n != 0 {
				t.Errorf("%s/%v: Decide allocated %v times per call, want 0", sc.name, search, n)
			}
		}
	}
}

// TestNewRejectsUnweightedScopes: several decision scopes compose into one
// requirement only through ScopeWeights, so New must reject them missing
// or of the wrong length.
func TestNewRejectsUnweightedScopes(t *testing.T) {
	w := []stream.Time{stream.Second, stream.Second, stream.Second}
	stage := func(left []int, right int) Scope {
		return Scope{Groups: [][]int{left, {right}}, Windows: []stream.Time{stream.Second, stream.Second}}
	}
	scopes := []Scope{stage([]int{0}, 1), stage([]int{0, 1}, 2)}
	for name, weights := range map[string][]float64{
		"missing":    nil,
		"mismatched": {1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights: New must panic", name)
				}
			}()
			New(Config{Windows: w, Adapt: adapt.Config{Gamma: 0.9, P: 10 * stream.Second, L: stream.Second},
				Scopes: scopes, ScopeWeights: weights})
		}()
	}
}
