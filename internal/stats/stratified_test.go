package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Property: under exact proportional allocation the stratified
// estimator must reproduce the pooled Wilson95 interval bit-for-bit,
// for any weights, allocation multiple, and per-stratum success split.
func TestStratifiedProportionalDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		H := 1 + rng.Intn(6)
		strata := make([]StratumCount, H)
		mult := 1 + rng.Intn(9) // n_h = mult * W_h  =>  exactly proportional
		var k, n int
		for h := range strata {
			w := int64(1 + rng.Intn(50))
			nh := mult * int(w)
			kh := rng.Intn(nh + 1)
			strata[h] = StratumCount{Weight: w, N: nh, K: kh}
			k += kh
			n += nh
		}
		got := StratifiedWilson95(strata)
		wantLo, wantHi := Wilson95(k, n)
		if !got.Proportional {
			t.Fatalf("trial %d: proportional allocation not detected: %+v", trial, strata)
		}
		if got.Lo != wantLo || got.Hi != wantHi {
			t.Fatalf("trial %d: stratified CI [%v,%v] != pooled Wilson95 [%v,%v]",
				trial, got.Lo, got.Hi, wantLo, wantHi)
		}
		if want := float64(k) / float64(n); got.Rate != want {
			t.Fatalf("trial %d: rate %v != pooled %v", trial, got.Rate, want)
		}
		if got.EffN != float64(n) {
			t.Fatalf("trial %d: effN %v != n %v", trial, got.EffN, n)
		}
	}
}

// Non-proportional allocations must NOT take the pooled fast path.
func TestStratifiedNonProportional(t *testing.T) {
	strata := []StratumCount{
		{Weight: 10, N: 50, K: 5},
		{Weight: 10, N: 10, K: 1},
	}
	got := StratifiedWilson95(strata)
	if got.Proportional {
		t.Fatalf("non-proportional allocation flagged proportional: %+v", got)
	}
	if want := 0.5*0.1 + 0.5*0.1; math.Abs(got.Rate-want) > 1e-12 {
		t.Fatalf("rate %v, want %v", got.Rate, want)
	}
	if !(got.Lo >= 0 && got.Lo <= got.Rate && got.Rate <= got.Hi && got.Hi <= 1) {
		t.Fatalf("interval [%v,%v] does not bracket rate %v", got.Lo, got.Hi, got.Rate)
	}
}

// Degenerate strata: unsampled, zero-weight, k=n, k=0, and empty input.
func TestStratifiedDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		strata []StratumCount
		check  func(t *testing.T, r StratifiedResult)
	}{
		{"empty", nil, func(t *testing.T, r StratifiedResult) {
			if r.Rate != 0 || r.Lo != 0 || r.Hi != 1 {
				t.Fatalf("want vacuous [0,1], got %+v", r)
			}
		}},
		{"all unsampled", []StratumCount{{Weight: 5}, {Weight: 7}},
			func(t *testing.T, r StratifiedResult) {
				if r.Rate != 0 || r.Lo != 0 || r.Hi != 1 {
					t.Fatalf("want vacuous [0,1], got %+v", r)
				}
			}},
		{"zero-weight ignored", []StratumCount{{Weight: 0, N: 10, K: 10}, {Weight: 3, N: 3, K: 0}},
			func(t *testing.T, r StratifiedResult) {
				wantLo, wantHi := Wilson95(0, 3)
				if !r.Proportional || r.Lo != wantLo || r.Hi != wantHi {
					t.Fatalf("zero-weight stratum not ignored: %+v", r)
				}
			}},
		{"k=n stratum", []StratumCount{{Weight: 4, N: 8, K: 8}, {Weight: 6, N: 4, K: 0}},
			func(t *testing.T, r StratifiedResult) {
				if r.Proportional {
					t.Fatalf("unexpected proportional: %+v", r)
				}
				if want := 0.4; math.Abs(r.Rate-want) > 1e-12 {
					t.Fatalf("rate %v, want %v", r.Rate, want)
				}
				// Jeffreys smoothing keeps the certain-looking stratum from
				// collapsing the interval.
				if r.Hi-r.Lo <= 0 || r.Hi > 1 || r.Lo < 0 {
					t.Fatalf("bad interval %+v", r)
				}
			}},
		{"unsampled renormalizes", []StratumCount{{Weight: 4, N: 8, K: 2}, {Weight: 96, N: 0, K: 0}},
			func(t *testing.T, r StratifiedResult) {
				// Only the sampled stratum contributes; its weight renormalizes
				// to 1 and we get plain 2/8.
				wantLo, wantHi := Wilson95(2, 8)
				if r.Rate != 0.25 || r.Lo != wantLo || r.Hi != wantHi {
					t.Fatalf("renormalization wrong: %+v", r)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, StratifiedWilson95(tc.strata)) })
	}
}

// WilsonReal must agree with the integer Wilson on integer inputs.
func TestWilsonRealMatchesInteger(t *testing.T) {
	z := 1.959963984540054
	for n := 1; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			lo, hi := Wilson(k, n, z)
			rlo, rhi := WilsonReal(float64(k), float64(n), z)
			if lo != rlo || hi != rhi {
				t.Fatalf("k=%d n=%d: Wilson [%v,%v] != WilsonReal [%v,%v]", k, n, lo, hi, rlo, rhi)
			}
		}
	}
	if lo, hi := WilsonReal(0, 0, z); lo != 0 || hi != 1 {
		t.Fatalf("n=0: want [0,1], got [%v,%v]", lo, hi)
	}
}

func TestNeymanAlloc(t *testing.T) {
	t.Run("sums to total", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			H := 1 + rng.Intn(8)
			w := make([]int64, H)
			s := make([]float64, H)
			for h := range w {
				w[h] = int64(rng.Intn(100))
				if rng.Intn(3) > 0 {
					s[h] = rng.Float64()
				}
			}
			total := rng.Intn(500)
			alloc := NeymanAlloc(w, s, total)
			sum, anyPos := 0, false
			for h, a := range alloc {
				if a < 0 {
					t.Fatalf("negative allocation %v", alloc)
				}
				if a > 0 && w[h] <= 0 {
					t.Fatalf("allocated to zero-weight stratum: %v w=%v", alloc, w)
				}
				sum += a
				anyPos = anyPos || w[h] > 0
			}
			if anyPos && total > 0 && sum != total {
				t.Fatalf("alloc %v sums to %d, want %d", alloc, sum, total)
			}
		}
	})
	t.Run("variance-proportional", func(t *testing.T) {
		alloc := NeymanAlloc([]int64{10, 10}, []float64{0.3, 0.1}, 40)
		if alloc[0] != 30 || alloc[1] != 10 {
			t.Fatalf("want [30 10], got %v", alloc)
		}
	})
	t.Run("zero-sigma falls back to weights", func(t *testing.T) {
		alloc := NeymanAlloc([]int64{30, 10}, []float64{0, 0}, 8)
		if alloc[0] != 6 || alloc[1] != 2 {
			t.Fatalf("want [6 2], got %v", alloc)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		w := []int64{7, 13, 5}
		s := []float64{0.2, 0.2, 0.2}
		a := NeymanAlloc(w, s, 17)
		for i := 0; i < 10; i++ {
			b := NeymanAlloc(w, s, 17)
			for h := range a {
				if a[h] != b[h] {
					t.Fatalf("non-deterministic: %v vs %v", a, b)
				}
			}
		}
	})
}

// The shared early-stop rule over one stratum must reproduce the
// distributed coordinator's former rule — both Wilson95 half-widths
// over injected trials at most the target — for every tally it can
// see, with bit-identical half-widths (they are logged), so
// cancellation points do not move. Besides the fixed targets, each
// tally is checked at the exact boundary, the larger half-width.
func TestConverged95MatchesWilsonRule(t *testing.T) {
	targets := []float64{0.01, 0.05, 0.1, 0.3, 0}
	sdc, due := make([]StratumCount, 1), make([]StratumCount, 1)
	for n := 1; n <= 200; n++ {
		half := make([]float64, n+1)
		for k := range half {
			lo, hi := Wilson95(k, n)
			half[k] = (hi - lo) / 2
		}
		for ks := 0; ks <= n; ks++ {
			for kd := 0; ks+kd <= n; kd++ {
				sdc[0] = StratumCount{Weight: 1, N: n, K: ks}
				due[0] = StratumCount{Weight: 1, N: n, K: kd}
				targets[len(targets)-1] = math.Max(half[ks], half[kd])
				for _, target := range targets {
					sh, dh, ok := Converged95(target, sdc, due)
					if sh != half[ks] || dh != half[kd] {
						t.Fatalf("n=%d sdc=%d due=%d: half-widths %v, %v; Wilson95 gives %v, %v",
							n, ks, kd, sh, dh, half[ks], half[kd])
					}
					if old := !(half[ks] > target || half[kd] > target); ok != old {
						t.Fatalf("n=%d sdc=%d due=%d target=%v: converged %v, Wilson95 rule %v",
							n, ks, kd, target, ok, old)
					}
				}
			}
		}
	}
}
