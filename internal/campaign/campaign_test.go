package campaign

import (
	"bytes"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

func testConfig(t *testing.T, names []string, trials, parallel int) Config {
	t.Helper()
	arch := gpu.GTX480()
	arch.NumSMs = 2
	specs := make([]*core.KernelSpec, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = b.Spec()
	}
	return Config{
		Arch:     arch,
		Opt:      core.FlameOptions(),
		Specs:    specs,
		Trials:   trials,
		Parallel: parallel,
		Seed:     42,
	}
}

// TestReportDeterministicAcrossWorkerCounts is the reproducibility
// contract: the same campaign config yields byte-identical JSON reports
// with 1 and 8 workers.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	names := []string{"Triad", "Histogram"}
	run := func(parallel int) []byte {
		rep, err := Run(testConfig(t, names, 6, parallel))
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := run(1)
	par := run(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("reports differ across worker counts:\n-parallel 1:\n%s\n-parallel 8:\n%s", seq, par)
	}
}

// TestReportIdenticalWithCycleSkipOnOff: event-driven fast-forwarding
// must not change a single byte of a campaign report — every trial's
// cycle counts, outcomes and error strings are identical to the naive
// per-cycle loop's, under both an unprotected Baseline and the full
// Flame scheme (injection, RBQ waits and recoveries in the loop).
func TestReportIdenticalWithCycleSkipOnOff(t *testing.T) {
	for _, scheme := range []struct {
		name string
		opt  core.Options
	}{
		{"flame", core.FlameOptions()},
		{"baseline", core.Options{Scheme: core.Baseline}},
	} {
		t.Run(scheme.name, func(t *testing.T) {
			run := func(noSkip bool) []byte {
				cfg := testConfig(t, []string{"Triad", "Histogram"}, 6, 4)
				cfg.Opt = scheme.opt
				cfg.Arch.NoCycleSkip = noSkip
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			fast := run(false)
			naive := run(true)
			if !bytes.Equal(fast, naive) {
				t.Fatalf("reports differ with cycle skipping on/off:\nskip:\n%s\nnaive:\n%s", fast, naive)
			}
		})
	}
}

// TestCampaignCoverageDataSlice: under the paper's fault model with the
// full Flame scheme, a small campaign reports zero SDC and zero Hang,
// and the derived rates are consistent.
func TestCampaignCoverageDataSlice(t *testing.T) {
	rep, err := Run(testConfig(t, []string{"Triad", "BFS"}, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	f := &rep.Fleet
	if f.SDC != 0 || f.Hang != 0 || f.DUE != 0 {
		t.Fatalf("uncovered outcomes under Flame/data-slice:\n%s", rep)
	}
	if f.Trials != 16 || f.Injected != f.Trials-f.NoInjection {
		t.Fatalf("count identity broken: %+v", f)
	}
	if got := f.Masked + f.Recovered + f.SDC + f.DUE + f.Hang + f.NoInjection; got != f.Trials {
		t.Fatalf("outcomes sum to %d, want %d", got, f.Trials)
	}
	if f.Injected > 0 && (f.CoverageLo > f.Coverage || f.Coverage > f.CoverageHi) {
		t.Fatalf("coverage %v outside its CI [%v, %v]", f.Coverage, f.CoverageLo, f.CoverageHi)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].WindowCycles <= 0 {
		t.Fatalf("benchmark rows: %+v", rep.Benchmarks)
	}
	if rep.Fleet.ExcludedStrikes != 0 {
		t.Fatalf("data-slice campaign struck the excluded set %d times", rep.Fleet.ExcludedStrikes)
	}
}

// TestSchemeRecoveryMatrix: under the data-slice model every detecting
// scheme, and Sensor+Checkpointing with its region-end checkpoint
// placement, turns each injected strike into Masked or Recovered, and
// its outcome counters add up to the trial count.
func TestSchemeRecoveryMatrix(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  core.Options
	}{
		{"SensorRenaming", core.Options{Scheme: core.SensorRenaming, WCDL: 20, ExtendRegions: true}},
		{"SensorCheckpointing", core.Options{Scheme: core.SensorCheckpointing, WCDL: 20, ExtendRegions: true}},
		{"HybridRenaming", core.Options{Scheme: core.HybridRenaming, WCDL: 20, ExtendRegions: true}},
		{"DupRenaming", core.Options{Scheme: core.DupRenaming, WCDL: 20, ExtendRegions: true}},
		{"SensorCheckpointing-CkptAtRegionEnd", core.Options{Scheme: core.SensorCheckpointing, WCDL: 20, CkptAtRegionEnd: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(t, []string{"Triad"}, 12, 0)
			cfg.Opt = c.opt
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := &rep.Benchmarks[0]
			if got := b.NoInjection + b.Masked + b.Recovered + b.SDC + b.DUE + b.Hang + b.Internal; got != 12 || b.Trials != 12 {
				t.Fatalf("outcomes sum to %d over %d trials, want 12: %s", got, b.Trials, b)
			}
			if b.SDC != 0 || b.DUE != 0 || b.Hang != 0 || b.Internal != 0 {
				t.Errorf("uncovered outcomes: %s", b)
			}
			if b.Injected == 0 || b.Recovered == 0 {
				t.Errorf("nothing injected and recovered: %s", b)
			}
		})
	}
}

// TestCampaignFullSiteFindsUncovered: the full-site model on an
// unprotected Baseline reports its outcomes without error and records
// excluded-site strikes (the boundary the data-slice model hides).
func TestCampaignFullSiteFindsUncovered(t *testing.T) {
	cfg := testConfig(t, []string{"Triad"}, 12, 4)
	cfg.Opt = core.Options{Scheme: core.Baseline}
	cfg.Model = flame.FullSite
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Fleet.Masked + rep.Fleet.Recovered + rep.Fleet.SDC + rep.Fleet.DUE +
		rep.Fleet.Hang + rep.Fleet.NoInjection; got != 12 {
		t.Fatalf("outcomes sum to %d, want 12:\n%s", got, rep)
	}
	if rep.Model != "full" {
		t.Fatalf("model = %q", rep.Model)
	}
}

func TestSeedDerivation(t *testing.T) {
	// Distinct benchmarks and trial indices get distinct seeds; the
	// derivation is pure.
	if benchSeed(1, "A") == benchSeed(1, "B") {
		t.Fatal("bench seeds collide")
	}
	if benchSeed(1, "A") != benchSeed(1, "A") {
		t.Fatal("bench seed not pure")
	}
	root := benchSeed(7, "Triad")
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := trialSeed(root, i)
		if seen[s] {
			t.Fatalf("trial seed collision at %d", i)
		}
		seen[s] = true
	}
}
