package stats

import "math"

// Stratified (post-stratified) rate estimation for the campaign's
// variance-reduced sampler. Strata carry exact integer site-count
// weights (the enumeration of the injection-site space is exact, not
// estimated), each stratum is sampled uniformly within itself, and the
// population rate is the weight-averaged per-stratum rate.
//
// The confidence interval is an effective-sample-size Wilson interval:
// the stratified variance estimate is converted into the binomial
// sample size that would carry the same information, and Wilson's
// score interval is evaluated at that (fractional) size. Under EXACT
// proportional allocation (n_h ∝ W_h for every stratum) the estimator
// is detected in integer arithmetic and degenerates to the pooled
// Wilson interval bit-for-bit — a proportionally-allocated stratified
// campaign reports the same interval an unstratified one would, and
// Neyman-allocated campaigns earn a tighter one only from genuinely
// lower estimated variance.

// StratumCount is one stratum's sampling state: its exact site-count
// weight and the successes observed in the trials allocated to it.
type StratumCount struct {
	Weight int64 // exact site count (relative stratum size)
	N      int   // trials sampled in the stratum
	K      int   // successes among them
}

// StratifiedResult is a post-stratified rate estimate with its CI.
type StratifiedResult struct {
	// Rate is the post-stratified point estimate Σ W_h/W · k_h/n_h
	// (weights renormalized over sampled strata).
	Rate float64
	// Lo, Hi is the confidence interval.
	Lo, Hi float64
	// EffN is the effective binomial sample size behind the interval
	// (equal to Σ n_h on the exact-proportional path).
	EffN float64
	// Proportional reports the exact-proportional degeneracy: the
	// interval is the pooled Wilson interval over Σ k_h / Σ n_h.
	Proportional bool
}

// HalfWidth returns the interval's half-width.
func (r StratifiedResult) HalfWidth() float64 { return (r.Hi - r.Lo) / 2 }

// StratifiedWilson computes the post-stratified rate estimate and its
// effective-sample-size Wilson interval at critical value z. Strata
// with zero weight are ignored; unsampled strata (n_h = 0) renormalize
// the weights over the sampled ones (post-stratification conditions on
// the sampled domain — the sampler's pilot round covers every stratum,
// so this is a defensive path). No sampled trials returns the vacuous
// [0, 1].
func StratifiedWilson(strata []StratumCount, z float64) StratifiedResult {
	var totalW, sampledW int64 // site totals: all strata / sampled strata
	var n, k int               // pooled trials and successes
	allSampled := true
	for _, s := range strata {
		if s.Weight <= 0 {
			continue
		}
		totalW += s.Weight
		if s.N > 0 {
			sampledW += s.Weight
			n += s.N
			k += s.K
		} else {
			allSampled = false
		}
	}
	if sampledW == 0 || n == 0 {
		return StratifiedResult{Rate: 0, Lo: 0, Hi: 1}
	}

	// Exact proportional allocation: n_h * ΣW == n * W_h for every
	// sampled stratum (and every stratum sampled). Integer arithmetic, so
	// the detection has no float tolerance; the pooled Wilson interval is
	// returned directly, making the degeneracy bit-exact.
	if allSampled {
		proportional := true
		for _, s := range strata {
			if s.Weight <= 0 {
				continue
			}
			if int64(s.N)*totalW != int64(n)*s.Weight {
				proportional = false
				break
			}
		}
		if proportional {
			lo, hi := Wilson(k, n, z)
			return StratifiedResult{
				Rate: float64(k) / float64(n), Lo: lo, Hi: hi,
				EffN: float64(n), Proportional: true,
			}
		}
	}

	// General path: weight-averaged rate, stratified variance with
	// Jeffreys-smoothed per-stratum rates (a stratum observed at 0/n or
	// n/n keeps a nonzero variance contribution instead of claiming
	// certainty), effective-size Wilson interval.
	var rate, variance, smoothed float64
	for _, s := range strata {
		if s.Weight <= 0 || s.N == 0 {
			continue
		}
		w := float64(s.Weight) / float64(sampledW)
		nh := float64(s.N)
		rate += w * float64(s.K) / nh
		ph := (float64(s.K) + 0.5) / (nh + 1)
		variance += w * w * ph * (1 - ph) / nh
		smoothed += w * ph
	}
	effN := float64(n)
	if variance > 0 {
		effN = smoothed * (1 - smoothed) / variance
	}
	lo, hi := WilsonReal(rate*effN, effN, z)
	return StratifiedResult{Rate: rate, Lo: lo, Hi: hi, EffN: effN}
}

// StratifiedWilson95 is StratifiedWilson at the conventional 95% level
// (same critical value as Wilson95).
func StratifiedWilson95(strata []StratumCount) StratifiedResult {
	return StratifiedWilson(strata, 1.959963984540054)
}

// Converged95 is the campaigns' early-stop rule, shared by the
// stratified sampler and the distributed coordinator: a positive
// target is met once the stratified 95% CI half-widths of both the SDC
// and the DUE rate are at most target. It also returns the two
// half-widths. Over a single stratum the interval is the pooled
// Wilson95 interval bit for bit (the exact-proportional path), so a
// uniform campaign passes {Weight: 1, N: injected, K: count}.
func Converged95(target float64, sdc, due []StratumCount) (sdcHalf, dueHalf float64, ok bool) {
	sdcHalf = StratifiedWilson95(sdc).HalfWidth()
	dueHalf = StratifiedWilson95(due).HalfWidth()
	return sdcHalf, dueHalf, target > 0 && sdcHalf <= target && dueHalf <= target
}

// WilsonReal is the Wilson score interval for fractional counts: k
// successes in n trials, both real-valued (the effective-sample-size
// interval behind StratifiedWilson); Wilson is it on integer counts.
// n <= 0 returns the vacuous [0, 1].
func WilsonReal(k, n, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := k / n
	z2 := z * z
	denom := 1 + z2/n
	center := p + z2/(2*n)
	margin := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	// At the boundaries the algebra cancels exactly (hi = 1 when k = n,
	// lo has no such cancellation); pin the float round-off so campaign
	// JSON reports 1, not 0.9999999999999999.
	if k >= n {
		hi = 1
	}
	return lo, hi
}

// NeymanAlloc distributes total trials across strata proportionally to
// W_h·σ_h (Neyman allocation: variance-proportional, minimizing the
// stratified estimator's variance for a fixed budget). Integer rounding
// is deterministic largest-remainder with index order breaking ties, so
// the allocation — and every report derived from it — is a pure
// function of its inputs. When every σ_h is zero (no variance observed
// anywhere yet) the allocation falls back to weight-proportional.
func NeymanAlloc(weights []int64, sigma []float64, total int) []int {
	alloc := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return alloc
	}
	scores := make([]float64, len(weights))
	sum := 0.0
	for h, w := range weights {
		if w > 0 && h < len(sigma) && sigma[h] > 0 {
			scores[h] = float64(w) * sigma[h]
			sum += scores[h]
		}
	}
	if sum == 0 {
		for h, w := range weights {
			if w > 0 {
				scores[h] = float64(w)
				sum += scores[h]
			}
		}
	}
	if sum == 0 {
		return alloc
	}
	type rem struct {
		h    int
		frac float64
	}
	rems := make([]rem, 0, len(weights))
	given := 0
	for h, sc := range scores {
		exact := float64(total) * sc / sum
		fl := math.Floor(exact)
		alloc[h] = int(fl)
		given += alloc[h]
		rems = append(rems, rem{h, exact - fl})
	}
	// Largest remainder first; ties go to the lower stratum index.
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && rems[j].frac > rems[j-1].frac; j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for i := 0; given < total && i < len(rems); i++ {
		if scores[rems[i].h] > 0 {
			alloc[rems[i].h]++
			given++
		}
	}
	// Degenerate rounding residue (all-zero remainders): round-robin over
	// positive-score strata.
	for h := 0; given < total; h = (h + 1) % len(alloc) {
		if scores[h] > 0 {
			alloc[h]++
			given++
		}
	}
	return alloc
}
