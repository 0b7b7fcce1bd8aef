package bench

import (
	"testing"

	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/regions"
)

func benchCfg() gpu.Config {
	c := gpu.GTX480()
	c.NumSMs = 4
	return c
}

// TestBaselineCorrectness runs every benchmark un-instrumented and
// validates its golden output.
func TestBaselineCorrectness(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := core.Run(benchCfg(), b.Spec(), core.Options{Scheme: core.Baseline})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles <= 0 {
				t.Fatal("no cycles")
			}
		})
	}
}

// TestCompilesUnderAllSchemes compiles every benchmark for every scheme
// and checks the idempotence invariants hold after renaming.
func TestCompilesUnderAllSchemes(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, s := range core.Schemes() {
				comp, err := core.Compile(b.Prog(), core.Options{Scheme: s, WCDL: 20, ExtendRegions: true})
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				if s.UsesRenaming() {
					if err := regions.VerifyIdempotence(comp.Prog, comp.Sections, false); err != nil {
						t.Fatalf("%s: %v", s, err)
					}
				}
			}
		})
	}
}

// TestFlameCorrectness runs every benchmark under the full Flame scheme
// and validates outputs (the WCDL machinery must not change semantics).
func TestFlameCorrectness(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if _, err := core.Run(benchCfg(), b.Spec(), core.FlameOptions()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchemeTimingRobustness runs every benchmark under schemes with
// very different instruction timing (checkpoint stores, duplicated
// issue) and validates outputs — catching kernels whose correctness
// accidentally depends on warp interleaving (data races).
func TestSchemeTimingRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, s := range []core.Scheme{core.Checkpointing, core.DupCheckpointing, core.HybridRenaming} {
				if _, err := core.Run(benchCfg(), b.Spec(), core.Options{Scheme: s, WCDL: 20}); err != nil {
					t.Fatalf("%s: %v", s, err)
				}
			}
		})
	}
}

// TestExtensionCandidatesQualify checks that the kernels flagged as
// III-E candidates actually produce extended sections.
func TestExtensionCandidatesQualify(t *testing.T) {
	for _, b := range All() {
		if !b.ExtensionCandidate {
			continue
		}
		comp, err := core.Compile(b.Prog(), core.FlameOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(comp.Sections) == 0 {
			t.Errorf("%s: flagged as extension candidate but no section detected", b.Name)
		}
	}
}

// TestInjectionSmoke runs a short fault-injection campaign on a sample
// of benchmarks under Flame.
func TestInjectionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	var specs []*core.KernelSpec
	for _, name := range []string{"Triad", "GUPS", "WT", "Transpose"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, b.Spec())
	}
	rep, err := campaign.Run(campaign.Config{
		Arch: benchCfg(), Opt: core.FlameOptions(), Specs: specs, Trials: 6, Seed: 2024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.SDC != 0 || b.DUE != 0 || b.Hang != 0 || b.Internal != 0 {
			t.Errorf("%s: %s", b.Benchmark, &b)
		}
	}
}

func TestRegistryConsistency(t *testing.T) {
	names := map[string]bool{}
	for _, b := range All() {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
		if b.Suite == "" || b.Description == "" {
			t.Errorf("%s: missing metadata", b.Name)
		}
		if b.Grid.Count() <= 0 || b.Block.Count() <= 0 {
			t.Errorf("%s: bad geometry", b.Name)
		}
	}
	if _, err := ByName("no-such-benchmark"); err == nil {
		t.Fatal("ByName should fail for unknown names")
	}
}
