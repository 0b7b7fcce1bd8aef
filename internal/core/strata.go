package core

import (
	"fmt"

	"flame/internal/analysis"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/kernel"
)

// StrataKey selects the stratification key of the injection-site
// enumeration — which static dimensions carve the arm-cycle space.
type StrataKey string

const (
	// StrataKeySectionClass is the default (kernel, section,
	// opcode-class) key.
	StrataKeySectionClass StrataKey = "section-class"
	// StrataKeyLiveness additionally splits every group by the firing
	// instruction's static liveness class (dead / short / long / store,
	// from analysis.ComputeIntervals and the store-reach slice).
	// Outcome variance concentrates in the store-reaching strata —
	// dead and short/long-lived sites are certainly masked absent
	// detection — so the Neyman reallocation stops spending trials on
	// provably deterministic strata after the pilot round.
	StrataKeyLiveness StrataKey = "liveness"
)

// ParseStrataKey validates a -strata-key spelling ("" selects the
// default key).
func ParseStrataKey(s string) (StrataKey, error) {
	switch StrataKey(s) {
	case "", StrataKeySectionClass:
		return StrataKeySectionClass, nil
	case StrataKeyLiveness:
		return StrataKeyLiveness, nil
	}
	return "", fmt.Errorf("unknown strata key %q (have %q, %q)",
		s, StrataKeySectionClass, StrataKeyLiveness)
}

// SiteLabels computes the per-instruction liveness-class labels of the
// kernel sites describes, for the liveness stratification key: the
// analysis.SiteClass spelling for register-defining instructions,
// "store" for global-store data sites (the corruption reaches memory by
// construction), and "" for the rest.
func SiteLabels(sites *flame.Sites) []string {
	prog := sites.Prog()
	iv := analysis.ComputeIntervals(kernel.Build(prog))
	labels := make([]string, len(prog.Insts))
	for i := range prog.Insts {
		if c, ok := iv.ClassOf(i, sites.StoreReach()); ok {
			labels[i] = c.String()
		} else if sites.At(i, flame.FullSite).Kind == flame.StoreSite {
			labels[i] = analysis.SiteStoreReach.String()
		}
	}
	return labels
}

// BuildStrataKeyed enumerates the single-strike injection-site space of
// a golden run into strata with exact site counts under the given key:
// (kernel, section, opcode-class) groups, each split further by what
// the corrupted value can reach (SiteLabels) under StrataKeyLiveness.
// It replays the golden's main launch with a recording
// hook combined after the scheme's own hooks — the recorder therefore
// sees the executed-instruction stream in exactly the order a trial's
// injector observes it — and feeds the corruptible events to a
// flame.StrataBuilder. Campaigns get the same map from Prepare, which
// records it during the golden run itself.
//
// The replay must be bit-identical to the golden run, so the recorder
// only watches; a replay whose main launch does not take the golden's
// cycle count is reported as an error rather than silently
// mis-weighting strata.
func BuildStrataKeyed(cfg gpu.Config, spec *KernelSpec, g *Golden, model flame.FaultModel, key StrataKey) (*flame.StrataMap, error) {
	if _, err := ParseStrataKey(string(key)); err != nil {
		return nil, err
	}
	r := newRecorder(g, spec.Name, Want{Strata: true, Model: model, Key: key})
	if err := r.replay(cfg, spec, g); err != nil {
		return nil, fmt.Errorf("strata replay: %w", err)
	}
	_, sm := r.finish(g)
	return sm, nil
}

// ArmSpan is the single-strike arm-cycle space size: arms are drawn
// uniformly from [0, ArmSpan()). Defined on Golden so the uniform
// campaign's trial derivation and the stratified enumeration cannot
// drift apart.
func (g *Golden) ArmSpan() int64 { return g.Window*9/10 + 1 }
