package campaign

import (
	"fmt"
	"math"
	"math/rand"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/stats"
)

// Stratified sampler: instead of drawing every trial's arm cycle
// uniformly from the whole window, the site space is enumerated once
// per benchmark into (kernel, section, opcode-class) strata — split
// further by static liveness class under Config.StrataKey "liveness" —
// with exact site counts (recorded by core.Prepare during the golden
// run), and trials are drawn uniformly WITHIN strata in rounds — a uniform pilot round first, then Neyman
// (variance-proportional) reallocation by the per-stratum outcome
// variance observed so far. Between rounds the post-stratified SDC and
// DUE rate CIs are checked against Config.CITarget, stopping the
// benchmark as soon as both are tight enough.
//
// Two properties keep accelerated campaigns honest:
//
//   - Determinism: each stratum owns a seed stream derived from the
//     campaign seed tree (benchSeed ^ "stratum:<key>"), trial i of a
//     stratum is the same trial at any -parallel, rounds are barriers,
//     and results fold in dispatch order — the report is byte-identical
//     regardless of worker count.
//   - Auditability: Audit runs the same budget on the uniform exact
//     grid and checks the stratified estimates fall inside the grid's
//     Wilson CIs (the estimators agree on what they estimate: rates
//     conditional on injection, since the no-injection tail is excluded
//     analytically and uniform rates divide by Injected).

// stratumState is one stratum's sampling progress within a benchmark.
type stratumState struct {
	st    *flame.SiteStratum
	seed  uint64        // root of the stratum's trial seed stream
	drawn int           // trials drawn so far (next seed index)
	rep   StratumReport // outcome tallies
}

// stratumSeed derives a stratum's seed-stream root from the campaign
// seed tree. The "stratum:" tag keeps the stream disjoint from the
// uniform grid's per-trial streams for the same benchmark.
func stratumSeed(campaignSeed uint64, bench, key string) uint64 {
	return splitmix64(benchSeed(campaignSeed, bench) ^ fnv64("stratum:"+key))
}

// stratumTrialSpec derives trial i of a stratum: a uniform site draw
// within the stratum mapped to its exact arm cycle, plus the injector
// seed. Depends only on (campaign seed, benchmark, stratum key, i), so
// the trial is the same no matter which worker runs it.
func (cfg *Config) stratumTrialSpec(g *core.Golden, ss *stratumState, i int) core.TrialSpec {
	rng := rand.New(rand.NewSource(trialSeed(ss.seed, i)))
	site := rng.Int63n(ss.st.Sites)
	return core.TrialSpec{
		Arms:      []int64{ss.st.ArmAt(site)},
		Model:     cfg.Model,
		Seed:      rng.Int63(),
		MaxCycles: g.HangBudget(cfg.HangBudgetMult),
		Timeout:   cfg.TrialTimeout,
	}
}

// RunStratified executes the stratified-sampling campaign. Config.Trials
// is the per-benchmark budget; benchmarks stop early once both rate CIs
// reach Config.CITarget (when positive). Single-strike only.
func RunStratified(cfg Config) (*Report, error) {
	cfg.Stratify = true
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Golden runs, each enumerating its strata (and, under Prune,
	// recording its pruning oracle) as it runs.
	p, err := newPool(&cfg, len(cfg.Specs)*cfg.Trials)
	if err != nil {
		return nil, err
	}
	var ran []trialRecord
	stopped := false
	for b, spec := range cfg.Specs {
		m := p.set[b].Strata
		states := make([]*stratumState, len(m.Strata))
		for h := range m.Strata {
			st := &m.Strata[h]
			states[h] = &stratumState{
				st:   st,
				seed: stratumSeed(cfg.Seed, spec.Name, st.Key()),
				rep:  StratumReport{Key: st.Key(), Sites: st.Sites},
			}
		}

		used, rounds := 0, 0
		reason := "budget"
		if len(states) == 0 {
			reason = "no_sites"
		}
		for len(states) > 0 {
			if used >= cfg.Trials {
				reason = "budget"
				break
			}
			if closed(cfg.Stop) {
				reason, stopped = "stopped", true
				break
			}
			// The round's trial indices follow (stratum, within-stratum)
			// order, so the grid is a pure function of the allocation
			// history regardless of worker interleaving.
			alloc := cfg.roundAlloc(states, rounds, cfg.Trials-used)
			var batch []trial
			for h, ss := range states {
				for i := 0; i < alloc[h]; i++ {
					batch = append(batch, trial{b: b, t: used + len(batch), ss: ss, draw: ss.drawn + i})
				}
				ss.drawn += alloc[h]
			}
			if len(batch) == 0 {
				reason = "budget"
				break
			}
			// Each round is a barrier. The strata tally its outcomes in
			// batch order — deterministic at any parallelism — for the
			// next round's allocation and the stopping rule.
			results := make([]trialRecord, len(batch))
			n := p.run(batch, results)
			for i := range batch[:n] {
				batch[i].ss.rep.foldOutcome(results[i].r.Outcome)
			}
			ran = append(ran, results[:n]...)
			used += n
			rounds++
			if n < len(batch) {
				reason, stopped = "stopped", true
				break
			}
			sdc, due := rateCounts(stratumReports(states))
			if _, _, ok := stats.Converged95(cfg.CITarget, sdc, due); ok {
				reason = "ci_target"
				break
			}
		}

		done := &benchDoneEvent{
			Event: "bench_done", Benchmark: spec.Name,
			TrialsUsed: used, Rounds: rounds, StopReason: reason,
		}
		p.recs.done[spec.Name] = done
		if p.str != nil {
			p.str.emitLocked(done)
		}
	}
	return p.close(ran, stopped)
}

// stratumReports collects the strata's outcome tallies.
func stratumReports(states []*stratumState) []StratumReport {
	reps := make([]StratumReport, len(states))
	for h, ss := range states {
		reps[h] = ss.rep
	}
	return reps
}

// roundAlloc decides the next round's per-stratum trial counts: the
// pilot round (round 0) spreads trials uniformly so every stratum gets
// variance evidence; later rounds are Neyman-allocated by the observed
// per-stratum binomial spread (the larger of the SDC and DUE sides,
// Jeffreys-smoothed so an all-masked stratum keeps a small share rather
// than being starved forever on possibly-noisy evidence).
func (cfg *Config) roundAlloc(states []*stratumState, round, remaining int) []int {
	H := len(states)
	alloc := make([]int, H)
	if remaining <= 0 {
		return alloc
	}
	if round == 0 {
		per := cfg.Pilot
		if per <= 0 {
			per = 8
		}
		if per < 2 {
			per = 2
		}
		total := per * H
		if total > remaining {
			total = remaining
		}
		base, rem := total/H, total%H
		for h := range alloc {
			alloc[h] = base
			if h < rem {
				alloc[h]++
			}
		}
		return alloc
	}
	size := 2 * H
	if q := cfg.Trials / 4; q > size {
		size = q
	}
	if size > remaining {
		size = remaining
	}
	weights := make([]int64, H)
	sigma := make([]float64, H)
	for h, ss := range states {
		weights[h] = ss.st.Sites
		n := float64(ss.rep.Trials - ss.rep.Internal)
		pS := (float64(ss.rep.SDC) + 0.5) / (n + 1)
		pD := (float64(ss.rep.DUE) + 0.5) / (n + 1)
		sigma[h] = math.Max(math.Sqrt(pS*(1-pS)), math.Sqrt(pD*(1-pD)))
	}
	return stats.NeymanAlloc(weights, sigma, size)
}

// AuditBench is one benchmark's stratified-vs-exact-grid consistency
// check: the stratified point estimates must fall inside the uniform
// grid's Wilson 95% CIs computed from the same per-benchmark budget.
type AuditBench struct {
	Benchmark string `json:"benchmark"`
	// StratSDC / StratDUE are the stratified point estimates.
	StratSDC float64 `json:"strat_sdc"`
	StratDUE float64 `json:"strat_due"`
	// Uniform CI bounds from the exact grid (rates over Injected).
	UniformSDCLo float64 `json:"uniform_sdc_lo"`
	UniformSDCHi float64 `json:"uniform_sdc_hi"`
	UniformDUELo float64 `json:"uniform_due_lo"`
	UniformDUEHi float64 `json:"uniform_due_hi"`
	// UniformTrials is the grid's injected-trial denominator.
	UniformTrials int  `json:"uniform_trials"`
	Pass          bool `json:"pass"`
}

// AuditReport is the full -audit consistency check.
type AuditReport struct {
	Benchmarks []AuditBench `json:"benchmarks"`
	Pass       bool         `json:"pass"`
}

// String renders one line per benchmark.
func (a *AuditReport) String() string {
	out := ""
	for _, b := range a.Benchmarks {
		verdict := "ok"
		if !b.Pass {
			verdict = "FAIL"
		}
		out += fmt.Sprintf("audit %s: %s  sdc %.4f in [%.4f, %.4f]  due %.4f in [%.4f, %.4f]  (grid: %d injected)\n",
			b.Benchmark, verdict, b.StratSDC, b.UniformSDCLo, b.UniformSDCHi,
			b.StratDUE, b.UniformDUELo, b.UniformDUEHi, b.UniformTrials)
	}
	return out
}

// Audit runs the same budget on the uniform exact grid and checks each
// stratified estimate falls inside the grid's Wilson 95% CI. strat must
// be a report produced by RunStratified with the same Config.
func Audit(cfg Config, strat *Report) (*AuditReport, error) {
	ucfg := cfg
	ucfg.Stratify = false
	ucfg.CITarget = 0
	ucfg.Events = nil
	ucfg.Stop = nil
	ucfg.Skip = nil
	ucfg.RestoreStats = nil
	urep, err := Run(ucfg)
	if err != nil {
		return nil, fmt.Errorf("audit: uniform grid: %w", err)
	}
	uniform := map[string]*BenchReport{}
	for i := range urep.Benchmarks {
		uniform[urep.Benchmarks[i].Benchmark] = &urep.Benchmarks[i]
	}
	out := &AuditReport{Pass: true}
	for i := range strat.Benchmarks {
		sb := &strat.Benchmarks[i]
		if sb.Sampling == nil {
			continue
		}
		ub, ok := uniform[sb.Benchmark]
		if !ok {
			return nil, fmt.Errorf("audit: benchmark %s missing from uniform grid", sb.Benchmark)
		}
		ab := AuditBench{
			Benchmark:     sb.Benchmark,
			StratSDC:      sb.Sampling.SDCRate.Rate,
			StratDUE:      sb.Sampling.DUERate.Rate,
			UniformTrials: ub.Injected,
		}
		ab.UniformSDCLo, ab.UniformSDCHi = stats.Wilson95(ub.SDC, ub.Injected)
		ab.UniformDUELo, ab.UniformDUEHi = stats.Wilson95(ub.DUE, ub.Injected)
		// Wilson's lower bound at k=0 is a ~1e-17 float residue of an
		// exact algebraic zero; pin it so a stratified estimate of exactly
		// zero is inside the interval it mathematically belongs to.
		if ub.SDC == 0 {
			ab.UniformSDCLo = 0
		}
		if ub.DUE == 0 {
			ab.UniformDUELo = 0
		}
		ab.Pass = ab.StratSDC >= ab.UniformSDCLo && ab.StratSDC <= ab.UniformSDCHi &&
			ab.StratDUE >= ab.UniformDUELo && ab.StratDUE <= ab.UniformDUEHi
		out.Pass = out.Pass && ab.Pass
		out.Benchmarks = append(out.Benchmarks, ab)
	}
	return out, nil
}
