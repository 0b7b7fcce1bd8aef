package core_test

import (
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// TestCensusAgreesWithStrata: the AVF census and the liveness-key
// strata walk the same golden schedule under the same strike model, so
// they must carve the same arm span: the same span, the same
// no-injection tail and the same injectable mass, on every quick-suite
// benchmark under an unprotected, a detecting and a duplicating scheme
// and under both fault models.
func TestCensusAgreesWithStrata(t *testing.T) {
	arch := gpu.GTX480()
	arch.NumSMs = 4
	for _, name := range bench.QuickSuite {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec()
		for _, scheme := range []core.Scheme{core.Baseline, core.SensorRenaming, core.DupRenaming} {
			opt := core.Options{Scheme: scheme, WCDL: 20, ExtendRegions: true}
			for _, model := range []flame.FaultModel{flame.DataSlice, flame.FullSite} {
				s, err := core.Prepare(arch, spec, opt, core.Want{
					Prune: true, Strata: true, Model: model, Key: core.StrataKeyLiveness,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, scheme, err)
				}
				c, err := s.Prune.Census(s.Golden, model)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, scheme, model, err)
				}
				sm := s.Strata
				if c.Span != sm.Span || c.NoInjection != sm.NoInjectionSites || c.Injectable() != sm.InjectableSites() {
					t.Errorf("%s/%s/%s: census span %d, no-injection %d, injectable %d; strata span %d, no-injection %d, injectable %d",
						name, scheme, model, c.Span, c.NoInjection, c.Injectable(),
						sm.Span, sm.NoInjectionSites, sm.InjectableSites())
				}
			}
		}
	}
}
