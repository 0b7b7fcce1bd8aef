// Package flame's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, plus the studies this
// reproduction adds (masking, false positives, occupancy, ablations).
// Run with `go test -bench=. -benchmem`.
// Each benchmark regenerates its experiment once per iteration and
// reports the headline quantity as a custom metric, so `-bench` output
// doubles as a results table:
//
//	BenchmarkFigure15_SchemeComparison ... flame-overhead-% 0.77
//
// The simulation benchmarks default to a structurally diverse subset on
// a 4-SM device to keep -bench runs minutes-scale; set -benchtime and
// the FLAME_FULL env var for the full 34-benchmark GTX480 sweep.
package flame_test

import (
	"os"
	"testing"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/harness"
	"flame/internal/stats"
)

// benchConfig picks the experiment scale: subset on 4 SMs by default,
// everything on a full GTX480 when FLAME_FULL is set.
func benchConfig(b *testing.B) harness.Config {
	b.Helper()
	cfg := harness.Default()
	if os.Getenv("FLAME_FULL") != "" {
		return cfg
	}
	cfg.Arch.NumSMs = 4
	var subset []*bench.Benchmark
	for _, name := range harness.QuickBenchmarks {
		bb, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		subset = append(subset, bb)
	}
	cfg.Benchmarks = subset
	return cfg
}

// BenchmarkFigure12_SensorCurves regenerates the WCDL-vs-sensors curves.
func BenchmarkFigure12_SensorCurves(b *testing.B) {
	cfg := benchConfig(b)
	var wcdl20 float64
	for i := 0; i < b.N; i++ {
		series := harness.Figure12(cfg)
		for _, s := range series {
			if s.Name == "GTX480" {
				for j, l := range s.Labels {
					if l == "200" {
						wcdl20 = s.Values[j]
					}
				}
			}
		}
	}
	b.ReportMetric(wcdl20, "wcdl@200sensors")
}

// BenchmarkTableII_SensorDeployment regenerates the per-architecture
// sensor counts for 20-cycle WCDL.
func BenchmarkTableII_SensorDeployment(b *testing.B) {
	cfg := benchConfig(b)
	var gtx float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gtx = float64(rows[0].SensorsPerSM)
	}
	b.ReportMetric(gtx, "gtx480-sensors")
}

// BenchmarkFigure13_14_PerBenchmark regenerates the per-application
// overhead comparison of all eight schemes.
func BenchmarkFigure13_14_PerBenchmark(b *testing.B) {
	cfg := benchConfig(b)
	var flameG float64
	for i := 0; i < b.N; i++ {
		m, err := harness.Figure13_14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		flameG = stats.Geomean(m.SchemeRow(core.SensorRenaming))
	}
	b.ReportMetric((flameG-1)*100, "flame-overhead-%")
}

// BenchmarkFigure15_SchemeComparison regenerates the geomean summary.
func BenchmarkFigure15_SchemeComparison(b *testing.B) {
	cfg := benchConfig(b)
	var flameG, dupG float64
	for i := 0; i < b.N; i++ {
		m, err := harness.Figure13_14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		g := harness.Figure15(cfg, m)
		for j, l := range g[0].Labels {
			switch l {
			case core.SensorRenaming.String():
				flameG = g[0].Values[j]
			case core.DupRenaming.String():
				dupG = g[0].Values[j]
			}
		}
	}
	b.ReportMetric((flameG-1)*100, "flame-overhead-%")
	b.ReportMetric((dupG-1)*100, "duplication-overhead-%")
}

// BenchmarkFigure16_RegionExtension regenerates the region-extension
// ablation on the qualifying kernels.
func BenchmarkFigure16_RegionExtension(b *testing.B) {
	cfg := benchConfig(b)
	var worstBefore, worstAfter float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure16(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worstBefore, worstAfter = 1, 1
		for _, r := range rows {
			if r.Without > worstBefore {
				worstBefore, worstAfter = r.Without, r.With
			}
		}
	}
	b.ReportMetric((worstBefore-1)*100, "worst-no-opt-%")
	b.ReportMetric((worstAfter-1)*100, "worst-opt-%")
}

// BenchmarkFigure17_WCDLSweep regenerates the WCDL sensitivity study.
func BenchmarkFigure17_WCDLSweep(b *testing.B) {
	cfg := benchConfig(b)
	var at10, at50 float64
	for i := 0; i < b.N; i++ {
		s, err := harness.Figure17(cfg)
		if err != nil {
			b.Fatal(err)
		}
		at10, at50 = s.Values[0], s.Values[len(s.Values)-1]
	}
	b.ReportMetric((at10-1)*100, "overhead@wcdl10-%")
	b.ReportMetric((at50-1)*100, "overhead@wcdl50-%")
}

// BenchmarkFigure18_Schedulers regenerates the scheduler sensitivity
// study (GTO, OLD, LRR, 2-Level).
func BenchmarkFigure18_Schedulers(b *testing.B) {
	cfg := benchConfig(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		s, err := harness.Figure18(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst, _ = stats.Max(s.Values)
	}
	b.ReportMetric((worst-1)*100, "worst-scheduler-overhead-%")
}

// BenchmarkFigure19_Architectures regenerates the architecture
// sensitivity study (GTX480, TITAN X, GV100, RTX2060).
func BenchmarkFigure19_Architectures(b *testing.B) {
	cfg := benchConfig(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		s, err := harness.Figure19(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst, _ = stats.Max(s.Values)
	}
	b.ReportMetric((worst-1)*100, "worst-arch-overhead-%")
}

// BenchmarkDiscussion_SectionIV regenerates the false-positive and
// region-size numbers.
func BenchmarkDiscussion_SectionIV(b *testing.B) {
	cfg := benchConfig(b)
	var d *harness.Discussion
	for i := 0; i < b.N; i++ {
		var err error
		d, err = harness.DiscussionStats(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.FalsePosPerDay, "false-pos/day")
	b.ReportMetric(d.AvgDynRegionInsts, "avg-region-insts")
}

// BenchmarkHardwareCost_SectionVIA2 regenerates the RBQ/RPT bit counts.
func BenchmarkHardwareCost_SectionVIA2(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Arch = gpu.GTX480() // the paper computes these for GTX480
	var hc harness.HardwareCost
	for i := 0; i < b.N; i++ {
		hc = harness.HardwareCostFor(cfg)
	}
	b.ReportMetric(float64(hc.RBQBits), "rbq-bits")
}

// BenchmarkInjection_RecoveryValidation runs the fault-injection
// campaign; every fault must be masked or recovered.
func BenchmarkInjection_RecoveryValidation(b *testing.B) {
	cfg := benchConfig(b)
	var rep *campaign.Report
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = harness.InjectionStudy(cfg, 3, uint64(2024+i)); err != nil {
			b.Fatal(err)
		}
		if _, err := harness.InjectionVerdict(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Fleet.Recovered), "recovered")
	b.ReportMetric(float64(rep.Fleet.Injected-rep.Fleet.Masked-rep.Fleet.Recovered), "unrecovered")
}

// BenchmarkSimulatorThroughput measures raw simulator speed (cycles
// simulated per second) on a streaming kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bb, err := bench.ByName("Triad")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpu.GTX480()
	cfg.NumSMs = 4
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, bb.Spec(), core.Options{Scheme: core.Baseline})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkMaskingStudy measures the unprotected bit-exact masking rate
// (Section IV's motivation numbers).
func BenchmarkMaskingStudy(b *testing.B) {
	cfg := benchConfig(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		rep, err := harness.MaskingStudy(cfg, 3, uint64(11+i))
		if err != nil {
			b.Fatal(err)
		}
		rate = 100 * rep.Fleet.Coverage
	}
	b.ReportMetric(rate, "masking-%")
}

// BenchmarkSectionSkipAblation measures the interior-boundary
// verification-skip design decision.
func BenchmarkSectionSkipAblation(b *testing.B) {
	cfg := benchConfig(b)
	var worstDelta float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.SectionSkipAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worstDelta = 0
		for _, r := range rows {
			if d := (r.Eager - r.Skipped) * 100; d > worstDelta {
				worstDelta = d
			}
		}
	}
	b.ReportMetric(worstDelta, "max-skip-benefit-pp")
}

// BenchmarkFalsePositiveCost measures the spurious-recovery overhead
// (Section IV).
func BenchmarkFalsePositiveCost(b *testing.B) {
	cfg := benchConfig(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.FalsePositiveStudy(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Overhead > worst {
				worst = r.Overhead
			}
		}
	}
	b.ReportMetric((worst-1)*100, "worst-3fp-overhead-%")
}

// BenchmarkOccupancyStudy measures WCDL hiding vs available warps
// (the Section III-C premise).
func BenchmarkOccupancyStudy(b *testing.B) {
	cfg := benchConfig(b)
	var lowOcc, highOcc float64
	for i := 0; i < b.N; i++ {
		s, err := harness.OccupancyStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lowOcc, highOcc = s.Values[0], s.Values[len(s.Values)-1]
	}
	b.ReportMetric((lowOcc-1)*100, "overhead@1blk-%")
	b.ReportMetric((highOcc-1)*100, "overhead@8blk-%")
}

// BenchmarkCheckpointPlacement compares Penny's checkpoint placements.
func BenchmarkCheckpointPlacement(b *testing.B) {
	cfg := benchConfig(b)
	var atDef, atEnd float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.CheckpointPlacementStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var d, e []float64
		for _, r := range rows {
			d = append(d, r.AtDef)
			e = append(e, r.AtEnd)
		}
		atDef, atEnd = stats.Geomean(d), stats.Geomean(e)
	}
	b.ReportMetric((atDef-1)*100, "at-def-%")
	b.ReportMetric((atEnd-1)*100, "at-end-%")
}
