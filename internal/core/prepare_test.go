package core_test

import (
	"reflect"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// TestPrepareMatchesReplay is the differential test of the single-pass
// set-up: what Prepare records during the golden run must deep-equal
// what the replay entry points record from the finished Golden — the
// prune index in every field (schedule, vulnerable lanes, last uses,
// main-launch cycles, disabled reason), with the default event cap and
// with one so small it overflows, and the strata under both keys.
// Recording must not perturb the golden run itself.
func TestPrepareMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the quick suite under five schemes")
	}
	arch := gpu.GTX480()
	const tinyCap = 64
	schemes := []core.Scheme{core.Baseline, core.Renaming, core.SensorRenaming, core.DupRenaming, core.SensorCheckpointing}
	suite := bench.QuickSuite
	if raceBuild {
		// The two heaviest benchmarks (SGEMM, LUD) run only in ordinary
		// builds: the comparison needs no race checking, and the other
		// six still run concurrent Prepare calls on shared specs.
		suite = []string{"Triad", "Histogram", "BFS", "NW", "PF", "SRAD"}
	}
	for _, name := range suite {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec()
		for _, scheme := range schemes {
			opt := core.Options{Scheme: scheme, WCDL: 20, ExtendRegions: true}
			t.Run(name+"/"+scheme.FlagName(), func(t *testing.T) {
				t.Parallel()
				plain, err := core.GoldenRun(arch, spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				full, err := core.Prepare(arch, spec, opt, core.Want{
					Prune: true, Strata: true, Model: flame.DataSlice, Key: core.StrataKeySectionClass,
				})
				if err != nil {
					t.Fatal(err)
				}
				tiny, err := core.Prepare(arch, spec, opt, core.Want{
					Prune: true, EventCap: tinyCap, Strata: true, Model: flame.DataSlice, Key: core.StrataKeyLiveness,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []core.Setup{full, tiny} {
					g := s.Golden
					if g.Window != plain.Window || g.MainCycles != plain.MainCycles ||
						!reflect.DeepEqual(g.Mem, plain.Mem) || !reflect.DeepEqual(g.InitMem, plain.InitMem) {
						t.Fatalf("recording changed the golden run: window %d/%d, main %d/%d",
							g.Window, plain.Window, g.MainCycles, plain.MainCycles)
					}
				}

				if d := core.PruneIndexDiff(full.Prune, core.BuildPruneIndex(arch, spec, plain, 0)); d != "" {
					t.Errorf("prune index differs from the replay in %s", d)
				}
				if full.Prune.Disabled() != "" {
					t.Errorf("pruning disabled: %s", full.Prune.Disabled())
				}
				if mc := core.PruneMainCycles(full.Prune); mc != plain.MainCycles {
					t.Errorf("index main-launch cycles %d, golden main launch %d (window %d)", mc, plain.MainCycles, plain.Window)
				}
				if d := core.PruneIndexDiff(tiny.Prune, core.BuildPruneIndex(arch, spec, plain, tinyCap)); d != "" {
					t.Errorf("capped prune index differs from the replay in %s", d)
				}
				if !strings.Contains(tiny.Prune.Disabled(), "exceeds") {
					t.Errorf("event cap %d did not overflow: %q", tinyCap, tiny.Prune.Disabled())
				}

				for _, c := range []struct {
					key core.StrataKey
					got *flame.StrataMap
				}{{core.StrataKeySectionClass, full.Strata}, {core.StrataKeyLiveness, tiny.Strata}} {
					want, err := core.BuildStrataKeyed(arch, spec, plain, flame.DataSlice, c.key)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(c.got, want) {
						t.Errorf("%s strata differ from the replay", c.key)
					}
				}
			})
		}
	}
}
