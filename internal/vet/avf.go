package vet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/stats"
)

// Static AVF prediction: the whole-program vulnerability engine
// predicts, per benchmark × scheme, the fraction of injection trials a
// campaign will classify Masked and Recovered — without running a
// single injection.
//
// The prediction composes three static/fault-free ingredients:
//
//   - ACE intervals (internal/analysis): every (instruction, register)
//     site is classified dead / short-lived / long-lived /
//     store-reaching from per-instruction def-use intervals and the
//     store-reach slice (flame.Sites). Sites outside the store-reach slice are
//     un-ACE — a corrupted value there provably never reaches memory,
//     control flow, or timing.
//   - Trace refinement (core.SiteCensus): the fault-free golden
//     schedule sharpens the static classes per arm cycle. A
//     store-reach register that the firing warp never reads again is
//     dynamically dead; each corruptible event owns an exact arm-cycle
//     interval, so the un-ACE fraction of the single-strike space is an
//     integer count, not an estimate.
//   - Detection-outcome model (core.PruneIndex): for sensor-detecting
//     schemes the controller polls Injector.Reports on every processed
//     cycle of the main launch, and the WCDL contract (sensor delay ≤
//     RBQ exit-boundary wait) means every fired strike is detected
//     in-launch. Detected strikes re-execute and classify Recovered.
//
// The model's honesty condition is validated, not assumed: the AVF
// gate below (AVFCrossValidate, flamevet -avf) runs a real campaign
// and requires each prediction to fall inside the measured Wilson 95%
// CI. The Residual field quantifies the model's uncertain mass — arms
// whose outcome is value-dependent — which the gate keeps small by
// construction on the gated pairs.

// Prediction is one benchmark × scheme static AVF report entry.
type Prediction struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Model     string `json:"model"`
	// Detecting marks sensor-detecting schemes (runtime controller with
	// nonzero sensor delay): every fired strike is detected in-launch
	// under the WCDL contract, so injected trials classify Recovered.
	Detecting bool `json:"detecting"`

	// Census is the exact arm-cycle partition of the single-strike
	// space from the fault-free golden schedule.
	Census *core.SiteCensus `json:"census"`
	// Classes are the per-liveness-class arm-cycle counts of the
	// corruptible space, keyed by the four-segment stratum key's last
	// segment (dead/short/long/store) — the static view the trace
	// census refines.
	Classes map[string]int64 `json:"classes"`

	// PredMasked / PredRecovered are the predicted fractions of
	// *injected* trials (the campaign's Masked/Injected and
	// Recovered/Injected denominators).
	PredMasked    float64 `json:"pred_masked"`
	PredRecovered float64 `json:"pred_recovered"`
	// Residual is the value-dependent (ACE-uncertain) fraction of the
	// injected space: the mass the static model cannot classify. The
	// masked prediction is exact up to this residual for non-detecting
	// schemes (and exact for detecting ones).
	Residual float64 `json:"residual"`
}

// Predict computes the static AVF prediction of one benchmark under one
// scheme and fault model. It runs the fault-free golden execution,
// recording its schedule and strata, but injects nothing.
func Predict(arch gpu.Config, spec *core.KernelSpec, opt core.Options, model flame.FaultModel) (*Prediction, error) {
	s, err := core.Prepare(arch, spec, opt, core.Want{
		Prune: true, Strata: true, Model: model, Key: core.StrataKeyLiveness,
	})
	if err != nil {
		return nil, fmt.Errorf("avf: %s: %w", spec.Name, err)
	}
	g, sm := s.Golden, s.Strata
	census, err := s.Prune.Census(g, model)
	if err != nil {
		return nil, fmt.Errorf("avf: %s/%s: %w", spec.Name, opt.Scheme, err)
	}
	classes := map[string]int64{}
	for i := range sm.Strata {
		classes[sm.Strata[i].Live] += sm.Strata[i].Sites
	}

	p := &Prediction{
		Benchmark: spec.Name,
		Scheme:    opt.Scheme.String(),
		Model:     model.String(),
		Detecting: g.Comp.Controller() != nil && g.MaxDelay > 0,
		Census:    census,
		Classes:   classes,
	}
	inj := census.Injectable()
	if inj <= 0 {
		return p, nil
	}
	if p.Detecting {
		// Detection is value-independent and always lands in-launch
		// under the WCDL contract: every injected trial recovers.
		p.PredRecovered = 1
		return p, nil
	}
	p.PredMasked = census.CertainMasked() / float64(inj)
	p.Residual = census.Vulnerable() / float64(inj)
	return p, nil
}

// String renders the prediction as one human-readable block.
func (p *Prediction) String() string {
	var b strings.Builder
	c := p.Census
	fmt.Fprintf(&b, "%s/%s (model=%s): span %d, injectable %d, no-injection %d\n",
		p.Benchmark, p.Scheme, p.Model, c.Span, c.Injectable(), c.NoInjection)
	keys := make([]string, 0, len(p.Classes))
	for k := range p.Classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  class %-6s %8d arms\n", k, p.Classes[k])
	}
	fmt.Fprintf(&b, "  trace-ACE: dead_static %d, dead_dynamic %.1f, live %.1f, store_data %d\n",
		c.DeadStatic, c.DeadDynamic, c.LiveRegister, c.StoreData)
	if p.Detecting {
		fmt.Fprintf(&b, "  predicted: recovered %.4f (detecting scheme; sensor delay ≤ WCDL)\n", p.PredRecovered)
	} else {
		fmt.Fprintf(&b, "  predicted: masked %.4f (residual %.4f value-dependent)\n", p.PredMasked, p.Residual)
	}
	return b.String()
}

// AVF cross-validation: the static vulnerability engine (Predict)
// predicts per-benchmark×scheme masked and recovered fractions; this
// gate runs a real injection campaign on the same pairs and checks
// prediction against the measured Wilson 95% CI. It is the
// model-vs-measurement loop of the AVF literature as a CI gate: a
// regression in the interval analysis, the store-reach slice, the
// detection-outcome model, or the injector itself moves measurement
// away from prediction and trips the gate.
//
// The check is two-tier, matching what the static model actually
// claims. PredMasked is a certain-masked LOWER bound and Residual is
// the value-dependent mass the model cannot classify, so every pair
// must satisfy the ACE soundness band — the measured CI must overlap
// [PredMasked, PredMasked+Residual] — and the recovered point
// prediction (exact for both scheme kinds) must fall inside its CI.
// Pairs where the model claims sharpness (detecting schemes, whose
// outcome model is exact, and pairs with Residual ≤ sharpMaxResidual)
// must additionally land the masked point prediction inside the
// measured CI.

// AVFPair is one benchmark × scheme verdict.
type AVFPair struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Detecting bool   `json:"detecting"`
	// Sharp marks pairs where the model claims a point masked
	// prediction (detecting, or residual at most the sharp threshold);
	// these get the strict in-CI check on top of the soundness band.
	Sharp bool `json:"sharp"`

	PredMasked    float64 `json:"pred_masked"`
	PredRecovered float64 `json:"pred_recovered"`
	Residual      float64 `json:"residual"`

	// Measured campaign counts over injected trials, with Wilson 95%
	// bounds for the gated fractions.
	Injected    int     `json:"injected"`
	Masked      int     `json:"masked"`
	Recovered   int     `json:"recovered"`
	MaskedLo    float64 `json:"masked_lo"`
	MaskedHi    float64 `json:"masked_hi"`
	RecoveredLo float64 `json:"recovered_lo"`
	RecoveredHi float64 `json:"recovered_hi"`

	Pass bool `json:"pass"`
}

// AVFReport is the full cross-validation result.
type AVFReport struct {
	Trials int       `json:"trials"`
	Model  string    `json:"model"`
	Pairs  []AVFPair `json:"pairs"`
	Pass   bool      `json:"pass"`

	// Predictions carries the underlying static reports (the artifact
	// uploaded by CI).
	Predictions []*Prediction `json:"predictions"`
}

// sharpMaxResidual is the residual mass up to which a non-detecting
// pair's masked prediction is held to the strict in-CI check. Detecting
// pairs are always sharp.
const sharpMaxResidual = 0.02

// AVFConfig parameterizes the gate.
type AVFConfig struct {
	Arch     gpu.Config
	Specs    []*core.KernelSpec
	Schemes  []core.Options
	Model    flame.FaultModel
	Trials   int
	Parallel int
	Seed     uint64
}

// AVFCrossValidate runs the gate: one static prediction and one
// injection campaign per scheme over the benchmark set, then the
// CI-containment check per pair.
func AVFCrossValidate(cfg AVFConfig) (*AVFReport, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 200
	}
	out := &AVFReport{Trials: cfg.Trials, Model: cfg.Model.String(), Pass: true}
	for _, opt := range cfg.Schemes {
		preds := map[string]*Prediction{}
		for _, spec := range cfg.Specs {
			p, err := Predict(cfg.Arch, spec, opt, cfg.Model)
			if err != nil {
				return nil, err
			}
			preds[spec.Name] = p
			out.Predictions = append(out.Predictions, p)
		}
		rep, err := campaign.Run(campaign.Config{
			Arch:     cfg.Arch,
			Opt:      opt,
			Specs:    cfg.Specs,
			Trials:   cfg.Trials,
			Parallel: cfg.Parallel,
			Seed:     cfg.Seed,
			Model:    cfg.Model,
		})
		if err != nil {
			return nil, fmt.Errorf("avf gate: campaign %s: %w", opt.Scheme, err)
		}
		for i := range rep.Benchmarks {
			br := &rep.Benchmarks[i]
			p, ok := preds[br.Benchmark]
			if !ok {
				continue
			}
			pair := AVFPair{
				Benchmark:     br.Benchmark,
				Scheme:        p.Scheme,
				Detecting:     p.Detecting,
				PredMasked:    p.PredMasked,
				PredRecovered: p.PredRecovered,
				Residual:      p.Residual,
				Injected:      br.Injected,
				Masked:        br.Masked,
				Recovered:     br.Recovered,
			}
			pair.MaskedLo, pair.MaskedHi = wilsonPinned(br.Masked, br.Injected)
			pair.RecoveredLo, pair.RecoveredHi = wilsonPinned(br.Recovered, br.Injected)
			pair.Sharp = p.Detecting || p.Residual <= sharpMaxResidual
			// Soundness band: the measured CI must overlap the model's
			// [certain-masked, certain-masked+residual] band, and the
			// recovered point prediction is exact for every scheme kind.
			band := pair.PredMasked <= pair.MaskedHi &&
				pair.PredMasked+pair.Residual >= pair.MaskedLo
			recovered := pair.PredRecovered >= pair.RecoveredLo &&
				pair.PredRecovered <= pair.RecoveredHi
			point := pair.PredMasked >= pair.MaskedLo && pair.PredMasked <= pair.MaskedHi
			pair.Pass = band && recovered && (!pair.Sharp || point)
			out.Pass = out.Pass && pair.Pass
			out.Pairs = append(out.Pairs, pair)
		}
	}
	return out, nil
}

// wilsonPinned is stats.Wilson95 with the k=0 lower bound and k=n upper
// bound pinned to their exact algebraic values, so a prediction of
// exactly 0 or 1 is inside the interval it mathematically belongs to.
func wilsonPinned(k, n int) (float64, float64) {
	lo, hi := stats.Wilson95(k, n)
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return lo, hi
}

// String renders one verdict line per pair.
func (r *AVFReport) String() string {
	var b strings.Builder
	for _, p := range r.Pairs {
		verdict := "ok"
		if !p.Pass {
			verdict = "FAIL"
		}
		kind := "band"
		if p.Sharp {
			kind = "sharp"
		}
		fmt.Fprintf(&b, "avf %s/%s: %s (%s)  masked %.4f in [%.4f, %.4f]  recovered %.4f in [%.4f, %.4f]  (%d injected, residual %.4f)\n",
			p.Benchmark, p.Scheme, verdict, kind,
			p.PredMasked, p.MaskedLo, p.MaskedHi,
			p.PredRecovered, p.RecoveredLo, p.RecoveredHi,
			p.Injected, p.Residual)
	}
	return b.String()
}

// WriteJSON writes the report (predictions included) as indented JSON.
func (r *AVFReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
