package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"flame/internal/core"
	"flame/internal/stats"
)

// BenchReport aggregates one workload's trials.
type BenchReport struct {
	Benchmark string `json:"benchmark"`
	// Trials counts all trials, NoInjection the ones whose strikes never
	// fired; Injected = Trials - NoInjection.
	Trials      int `json:"trials"`
	NoInjection int `json:"no_injection"`
	Injected    int `json:"injected"`

	Masked    int `json:"masked"`
	Recovered int `json:"recovered"`
	SDC       int `json:"sdc"`
	DUE       int `json:"due"`
	Hang      int `json:"hang"`
	// Internal counts trials the infrastructure itself failed on (a
	// recovered panic in the simulator or a scheme controller). Like
	// NoInjection they are excluded from the Injected denominator: they
	// say nothing about fault coverage, but are counted and exemplified
	// so broken trials cannot vanish silently.
	Internal int `json:"internal"`

	// ExcludedStrikes counts strikes that landed in the address/control
	// slice (reachable only under the full-site model).
	ExcludedStrikes int `json:"excluded_strikes"`

	// PrunedMasked / PrunedNoInjection count trials classified without
	// simulation by the dataflow-slice pruner (campaign Config.Prune).
	// They are subsets of Masked / NoInjection — the totals, coverage
	// and CIs are unaffected — and keep accelerated campaigns auditable:
	// a pruned trial's result is bit-identical to what simulation would
	// have produced (asserted by the equivalence suite). Zero (and
	// omitted from JSON) when pruning is off, so prune-off reports are
	// byte-identical to the pre-pruning format.
	PrunedMasked      int `json:"pruned_masked,omitempty"`
	PrunedNoInjection int `json:"pruned_no_injection,omitempty"`

	// PruneDisabled records why pruning fell back to full simulation
	// for this workload when Config.Prune requested it — the
	// PruneIndex.Disabled soundness-gate reason (schedule overflow,
	// entry-liveness violation, ...). Empty (and omitted from JSON)
	// when pruning is off or the index is live, so those reports keep
	// their existing bytes. Never set on the fleet aggregate: the
	// fallback is a per-workload fact.
	PruneDisabled string `json:"prune_disabled,omitempty"`

	// Coverage is the fraction of injected trials ending benignly
	// (Masked or Recovered), with a Wilson 95% confidence interval.
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_lo"`
	CoverageHi float64 `json:"coverage_hi"`

	// WindowCycles is the fault-free execution window (zero in the fleet
	// aggregate, where windows are not comparable).
	WindowCycles int64 `json:"window_cycles,omitempty"`

	// ExampleSDC / ExampleHang / ExampleInternal describe the first
	// trial with that outcome — the debugging breadcrumb.
	ExampleSDC      string `json:"example_sdc,omitempty"`
	ExampleHang     string `json:"example_hang,omitempty"`
	ExampleInternal string `json:"example_internal,omitempty"`

	// Sampling is the stratified sampler's per-benchmark breakdown:
	// site-space enumeration, per-stratum allocation and outcomes, the
	// post-stratified SDC/DUE rate estimates, and why sampling stopped.
	// Nil (and omitted from JSON) on uniform campaigns, so their reports
	// are byte-identical to the pre-stratification format.
	Sampling *SamplingReport `json:"sampling,omitempty"`

	// Propagation is the traced campaign's strike-propagation summary
	// (Config.Trace): depth/latency percentiles, fingerprint
	// frequencies, error-shape histograms. Nil (and omitted from JSON)
	// on untraced campaigns, so their reports are byte-identical to the
	// pre-tracing format — and stripping it from a traced report yields
	// the untraced bytes, which the equivalence test asserts.
	Propagation *PropReport `json:"propagation,omitempty"`

	// prop accumulates the records fold absorbs; finish renders it.
	prop *propAgg
}

// RateCI is a rate estimate with its 95% confidence interval.
type RateCI struct {
	Rate float64 `json:"rate"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	// EffN is the effective binomial sample size behind the interval
	// (equals the sampled trial count under proportional allocation).
	EffN float64 `json:"eff_n"`
}

// HalfWidth is the interval's half-width, (Hi-Lo)/2.
func (r RateCI) HalfWidth() float64 { return (r.Hi - r.Lo) / 2 }

// StratumReport is one injection-site stratum's allocation and outcomes.
type StratumReport struct {
	// Key is the stratum's canonical "kernel/sN/class" key.
	Key string `json:"key"`
	// Sites is the stratum's exact arm-cycle site count (its weight).
	Sites int64 `json:"sites"`
	// Trials counts trials allocated to (and run in) the stratum.
	Trials    int `json:"trials"`
	Masked    int `json:"masked"`
	Recovered int `json:"recovered"`
	SDC       int `json:"sdc"`
	DUE       int `json:"due"`
	Hang      int `json:"hang"`
	Internal  int `json:"internal,omitempty"`
}

// foldOutcome tallies one trial outcome into the stratum.
func (s *StratumReport) foldOutcome(o core.Outcome) {
	s.Trials++
	switch o {
	case core.OutcomeMasked:
		s.Masked++
	case core.OutcomeRecovered:
		s.Recovered++
	case core.OutcomeSDC:
		s.SDC++
	case core.OutcomeDUE:
		s.DUE++
	case core.OutcomeHang:
		s.Hang++
	case core.OutcomeInternal:
		s.Internal++
	}
}

// SamplingReport is the stratified sampler's per-benchmark summary.
type SamplingReport struct {
	// SpanSites is the arm-cycle space size; NoInjectionSites the tail
	// past the last corruptible event, which the sampler excludes
	// analytically (stratified trials never classify NoInjection).
	SpanSites        int64 `json:"span_sites"`
	NoInjectionSites int64 `json:"no_injection_sites"`
	// Budget is the per-benchmark trial budget; TrialsUsed what adaptive
	// stopping actually spent, across Rounds sampling rounds.
	Budget     int `json:"budget"`
	TrialsUsed int `json:"trials_used"`
	Rounds     int `json:"rounds"`
	// StopReason is why sampling ended: "ci_target" (both rate CIs hit
	// the target half-width), "budget", "stopped" (interrupt), or
	// "no_sites" (no corruptible site in the window).
	StopReason string `json:"stop_reason"`
	// SDCRate / DUERate are the post-stratified rate estimates over the
	// injectable site space (the same conditional-on-injection rates a
	// uniform campaign estimates as SDC/Injected and DUE/Injected).
	SDCRate RateCI `json:"sdc_rate"`
	DUERate RateCI `json:"due_rate"`
	// Strata is the per-stratum breakdown, in enumeration order.
	Strata []StratumReport `json:"strata"`
}

// rateCI converts a stratified estimate to its report form.
func rateCI(r stats.StratifiedResult) RateCI {
	return RateCI{Rate: r.Rate, Lo: r.Lo, Hi: r.Hi, EffN: r.EffN}
}

// rateCounts is the strata's sampling state for the post-stratified
// SDC and DUE rates: site weights, and successes among the trials that
// were not infrastructure failures.
func rateCounts(strata []StratumReport) (sdc, due []stats.StratumCount) {
	sdc = make([]stats.StratumCount, len(strata))
	due = make([]stats.StratumCount, len(strata))
	for i := range strata {
		s := &strata[i]
		n := s.Trials - s.Internal
		sdc[i] = stats.StratumCount{Weight: s.Sites, N: n, K: s.SDC}
		due[i] = stats.StratumCount{Weight: s.Sites, N: n, K: s.DUE}
	}
	return sdc, due
}

// Fold adds one trial to the counters. The derived fields (Injected,
// Coverage, Propagation) read stale until Finish.
func (b *BenchReport) Fold(t *core.TrialResult) {
	b.Trials++
	switch t.Outcome {
	case core.OutcomeNoInjection:
		b.NoInjection++
	case core.OutcomeMasked:
		b.Masked++
	case core.OutcomeRecovered:
		b.Recovered++
	case core.OutcomeSDC:
		b.SDC++
		if b.ExampleSDC == "" {
			b.ExampleSDC = t.Description
		}
	case core.OutcomeDUE:
		b.DUE++
	case core.OutcomeHang:
		b.Hang++
		if b.ExampleHang == "" {
			b.ExampleHang = t.Description
		}
	case core.OutcomeInternal:
		b.Internal++
		if b.ExampleInternal == "" {
			b.ExampleInternal = t.Description
		}
	}
	b.ExcludedStrikes += t.ExcludedStrikes
	if t.Pruned {
		switch t.Outcome {
		case core.OutcomeMasked:
			b.PrunedMasked++
		case core.OutcomeNoInjection:
			b.PrunedNoInjection++
		}
	}
	if t.Prop != nil {
		if b.prop == nil {
			b.prop = &propAgg{}
		}
		b.prop.fold(t.Prop, t.Outcome)
	}
}

// Merge accumulates another report's counters (fleet aggregation).
func (b *BenchReport) Merge(o *BenchReport) {
	b.Trials += o.Trials
	b.NoInjection += o.NoInjection
	b.Masked += o.Masked
	b.Recovered += o.Recovered
	b.SDC += o.SDC
	b.DUE += o.DUE
	b.Hang += o.Hang
	b.Internal += o.Internal
	b.ExcludedStrikes += o.ExcludedStrikes
	b.PrunedMasked += o.PrunedMasked
	b.PrunedNoInjection += o.PrunedNoInjection
	if b.ExampleSDC == "" {
		b.ExampleSDC = o.ExampleSDC
	}
	if b.ExampleHang == "" {
		b.ExampleHang = o.ExampleHang
	}
	if b.ExampleInternal == "" {
		b.ExampleInternal = o.ExampleInternal
	}
	if o.prop != nil {
		if b.prop == nil {
			b.prop = &propAgg{}
		}
		b.prop.merge(o.prop)
	}
}

// Finish computes the derived fields from the counters. It may run
// again after further folds.
func (b *BenchReport) Finish() {
	b.Injected = b.Trials - b.NoInjection - b.Internal
	if b.Injected > 0 {
		b.Coverage = float64(b.Masked+b.Recovered) / float64(b.Injected)
	}
	b.CoverageLo, b.CoverageHi = stats.Wilson95(b.Masked+b.Recovered, b.Injected)
	if b.prop != nil {
		frac := 0.0
		if b.Trials > 0 {
			frac = float64(b.PrunedMasked+b.PrunedNoInjection) / float64(b.Trials)
		}
		b.Propagation = b.prop.finish(frac)
	}
}

// String summarizes the counters and the coverage interval on one line.
func (b *BenchReport) String() string {
	return fmt.Sprintf("trials=%d injected=%d masked=%d recovered=%d sdc=%d due=%d hang=%d internal=%d coverage=%.2f%% [%.2f%%, %.2f%%]",
		b.Trials, b.Injected, b.Masked, b.Recovered, b.SDC, b.DUE, b.Hang, b.Internal,
		b.Coverage*100, b.CoverageLo*100, b.CoverageHi*100)
}

// Report is a full campaign summary. Every field is a deterministic
// function of the campaign Config, so two runs with the same config are
// bit-identical regardless of worker count.
type Report struct {
	Arch            string        `json:"arch"`
	Scheme          string        `json:"scheme"`
	Model           string        `json:"model"`
	WCDL            int           `json:"wcdl"`
	Seed            uint64        `json:"seed"`
	Trials          int           `json:"trials_per_benchmark"`
	StrikesPerTrial int           `json:"strikes_per_trial"`
	Benchmarks      []BenchReport `json:"benchmarks"`
	Fleet           BenchReport   `json:"fleet"`
	// Stratified marks a stratified-sampler report (Trials is then the
	// per-benchmark budget, not necessarily what each benchmark spent);
	// CITarget is its early-stopping half-width target. Both omitted on
	// uniform campaigns, keeping their JSON unchanged.
	Stratified bool    `json:"stratified,omitempty"`
	CITarget   float64 `json:"ci_target,omitempty"`
}

// Table renders the per-benchmark coverage table.
func (r *Report) Table() *stats.Table {
	t := &stats.Table{Header: []string{
		"benchmark", "trials", "injected", "masked", "recovered",
		"sdc", "due", "hang", "internal", "coverage", "95% CI",
	}}
	row := func(b *BenchReport) {
		t.Add(b.Benchmark, b.Trials, b.Injected, b.Masked, b.Recovered,
			b.SDC, b.DUE, b.Hang, b.Internal,
			fmt.Sprintf("%.2f%%", b.Coverage*100),
			fmt.Sprintf("[%.2f%%, %.2f%%]", b.CoverageLo*100, b.CoverageHi*100))
	}
	for i := range r.Benchmarks {
		row(&r.Benchmarks[i])
	}
	row(&r.Fleet)
	return t
}

// String renders the report header and table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-injection campaign: scheme=%s model=%s arch=%s wcdl=%d trials=%d/bench strikes=%d seed=%d\n",
		r.Scheme, r.Model, r.Arch, r.WCDL, r.Trials, r.StrikesPerTrial, r.Seed)
	b.WriteString(r.Table().String())
	if r.Stratified {
		for i := range r.Benchmarks {
			br := &r.Benchmarks[i]
			s := br.Sampling
			if s == nil {
				continue
			}
			fmt.Fprintf(&b, "sampling %s: %d/%d trials, %d rounds, stop=%s, strata=%d, sdc=%.3f%% [%.3f%%, %.3f%%], due=%.3f%% [%.3f%%, %.3f%%]\n",
				br.Benchmark, s.TrialsUsed, s.Budget, s.Rounds, s.StopReason, len(s.Strata),
				s.SDCRate.Rate*100, s.SDCRate.Lo*100, s.SDCRate.Hi*100,
				s.DUERate.Rate*100, s.DUERate.Lo*100, s.DUERate.Hi*100)
		}
	}
	if r.Fleet.SDC == 0 && r.Fleet.Hang == 0 && r.Fleet.DUE == 0 {
		b.WriteString("every injected fault was masked or detected and recovered\n")
	} else {
		fmt.Fprintf(&b, "uncovered outcomes: sdc=%d due=%d hang=%d", r.Fleet.SDC, r.Fleet.DUE, r.Fleet.Hang)
		if r.Fleet.ExampleSDC != "" {
			fmt.Fprintf(&b, "\n  first sdc:  %s", r.Fleet.ExampleSDC)
		}
		if r.Fleet.ExampleHang != "" {
			fmt.Fprintf(&b, "\n  first hang: %s", r.Fleet.ExampleHang)
		}
		b.WriteString("\n")
	}
	if r.Fleet.Internal > 0 {
		fmt.Fprintf(&b, "internal trial failures: %d (excluded from coverage)\n  first: %s\n",
			r.Fleet.Internal, r.Fleet.ExampleInternal)
	}
	if pruned := r.Fleet.PrunedMasked + r.Fleet.PrunedNoInjection; pruned > 0 {
		fmt.Fprintf(&b, "pruned without simulation: %d trials (%d masked, %d no-injection)\n",
			pruned, r.Fleet.PrunedMasked, r.Fleet.PrunedNoInjection)
	}
	if p := r.Fleet.Propagation; p != nil {
		fmt.Fprintf(&b, "propagation: %d traced, %d reached a store", p.Traced, p.StoreReached)
		if p.Depth != nil {
			fmt.Fprintf(&b, ", depth p50/p90/p99 = %d/%d/%d cycles", p.Depth.P50, p.Depth.P90, p.Depth.P99)
		}
		if p.DistinctFingerprints > 0 {
			fmt.Fprintf(&b, ", %d distinct sdc fingerprints", p.DistinctFingerprints)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
