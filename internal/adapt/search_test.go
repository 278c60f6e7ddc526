package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// TestBinarySearchMatchesLinear: under the monotone EqSel model, binary and
// linear search must agree exactly for random delay profiles, at the
// default b = g and at the non-default b/g ratios of the Eq. 3 differential.
func TestBinarySearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 48; trial++ {
		r := eq3Ratios[trial%len(eq3Ratios)]
		frac := 0.1 + 0.6*rng.Float64()
		d := stream.Time(50+rng.Intn(400)) * max(1, r.g/10)
		st := buildStats(2, r.g, frac, d, 1500)
		gamma := []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999}[rng.Intn(6)]

		cfg := Config{Gamma: gamma, NoCalibration: true, B: r.b, G: r.g}
		lin, _ := modelWith(st, []stream.Time{5000, 5003}, cfg)
		cfg.Search = BinarySearch
		bin, _ := modelWith(st, []stream.Time{5000, 5003}, cfg)
		kl := lin.Decide(0, nil)
		kb := bin.Decide(0, nil)
		if kl != kb {
			t.Fatalf("trial %d (b=%d g=%d Γ=%v frac=%.2f d=%d): linear %d vs binary %d",
				trial, r.b, r.g, gamma, frac, d, kl, kb)
		}
	}
}

// TestBinarySearchFewerIterations: the point of the extension — far fewer
// model evaluations per adaptation step when k* is large.
func TestBinarySearchFewerIterations(t *testing.T) {
	st := buildStats(2, 10, 0.5, 2000, 3000)
	lin, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0.999, NoCalibration: true, G: 10, Search: LinearSearch})
	bin, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0.999, NoCalibration: true, G: 10, Search: BinarySearch})
	lin.Decide(0, nil)
	bin.Decide(0, nil)
	_, li, _ := lin.AdaptStats()
	_, bi, _ := bin.AdaptStats()
	if li < 10*bi {
		t.Fatalf("binary search should cut iterations ≥10×: linear %d vs binary %d", li, bi)
	}
}

// TestBinarySearchBoundaries: degenerate requirements hit the boundary fast.
func TestBinarySearchBoundaries(t *testing.T) {
	st := buildStats(2, 10, 0.4, 300, 1000)
	zero, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0, NoCalibration: true, Search: BinarySearch})
	if k := zero.Decide(0, nil); k != 0 {
		t.Fatalf("Γ=0 binary search returned %d", k)
	}
	one, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 1, NoCalibration: true, Search: BinarySearch})
	if k := one.Decide(0, nil); k > 300 {
		t.Fatalf("Γ=1 binary search exceeded MaxDH: %d", k)
	}
}

// TestSearchString covers the Stringer.
func TestSearchString(t *testing.T) {
	if LinearSearch.String() != "linear" || BinarySearch.String() != "binary" {
		t.Fatal("Search.String")
	}
}
