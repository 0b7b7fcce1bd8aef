// Package avf is the whole-program static vulnerability engine: it
// predicts, per benchmark × scheme, the fraction of injection trials a
// campaign will classify Masked and Recovered — without running a
// single injection.
//
// The prediction composes three static/fault-free ingredients:
//
//   - ACE intervals (internal/analysis): every (instruction, register)
//     site is classified dead / short-lived / long-lived /
//     store-reaching from per-instruction def-use intervals and
//     flame.StoreReachSlice. Sites outside the store-reach slice are
//     un-ACE — a corrupted value there provably never reaches memory,
//     control flow, or timing.
//   - Trace refinement (core.SiteCensus): the fault-free golden
//     schedule sharpens the static classes per arm cycle. A
//     store-reach register that the firing warp never reads again is
//     dynamically dead; each corruptible event owns an exact arm-cycle
//     interval, so the un-ACE fraction of the single-strike space is an
//     integer count, not an estimate.
//   - Detection-outcome model (core.PruneIndex): for sensor-detecting
//     schemes the controller probes DetectionDue on every processed
//     cycle of the main launch, and the WCDL contract (sensor delay ≤
//     RBQ exit-boundary wait) means every fired strike is detected
//     in-launch. Detected strikes re-execute and classify Recovered.
//
// The model's honesty condition is validated, not assumed: vet's AVF
// gate (internal/vet, flamevet -avf) runs a real campaign and requires
// each prediction to fall inside the measured Wilson 95% CI. The
// Residual field quantifies the model's uncertain mass — arms whose
// outcome is value-dependent — which the gate keeps small by
// construction on the gated pairs.
package avf

import (
	"fmt"
	"sort"
	"strings"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

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
