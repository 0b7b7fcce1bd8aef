package harness

import (
	"fmt"
	"strings"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/par"
	"flame/internal/sensor"
	"flame/internal/stats"
)

// Figure12 reproduces the WCDL-vs-sensor-count curves for the four GPU
// architectures.
func Figure12(cfg Config) []stats.Series {
	cfg.fill()
	var out []stats.Series
	var curves [][]sensor.CurvePoint
	t := &stats.Table{Header: []string{"sensors"}}
	for _, spec := range sensor.Specs {
		t.Header = append(t.Header, spec.Name)
		c := sensor.Curve(spec, 50, 300, 25)
		s := stats.Series{Name: spec.Name}
		for _, p := range c {
			s.Labels = append(s.Labels, fmt.Sprint(p.Sensors))
			s.Values = append(s.Values, float64(p.WCDL))
		}
		out, curves = append(out, s), append(curves, c)
	}
	for i, p := range curves[0] {
		cells := []any{p.Sensors}
		for _, c := range curves {
			cells = append(cells, c[i].WCDL)
		}
		t.Add(cells...)
	}
	cfg.printf("Figure 12: WCDL (cycles) vs sensors per SM\n%s\n", t)
	return out
}

// TableIIRow is one architecture's sensor deployment for 20-cycle WCDL.
type TableIIRow struct {
	Name         string
	FreqMHz      float64
	SMCount      int
	SensorsPerSM int
	AreaOverhead float64
}

// TableII reproduces the sensors-for-20-cycles deployment table.
func TableII(cfg Config) ([]TableIIRow, error) {
	cfg.fill()
	var out []TableIIRow
	t := &stats.Table{Header: []string{"GPU", "MHz", "SMs", "sensors/SM", "area overhead"}}
	for _, spec := range sensor.Specs {
		n, err := sensor.SensorsFor(20, spec.SMAreaMM2, spec.FreqMHz)
		if err != nil {
			return nil, err
		}
		d := sensor.Deployment{SensorsPerSM: n, SMAreaMM2: spec.SMAreaMM2, FreqMHz: spec.FreqMHz}
		row := TableIIRow{
			Name: spec.Name, FreqMHz: spec.FreqMHz, SMCount: spec.SMCount,
			SensorsPerSM: n, AreaOverhead: d.AreaOverhead(),
		}
		out = append(out, row)
		t.Add(row.Name, int(row.FreqMHz), row.SMCount, row.SensorsPerSM,
			fmt.Sprintf("%.4f%%", row.AreaOverhead*100))
	}
	cfg.printf("Table II: sensors per SM for 20-cycle WCDL\n%s\n", t)
	return out, nil
}

// Figure16Row is one benchmark's overhead with and without the
// region-extension optimization.
type Figure16Row struct {
	Benchmark      string
	Without, With  float64
	ElidedBarriers int
}

// Figure16 measures the impact of the III-E region-extension
// optimization on the benchmarks whose barrier pattern qualifies.
func Figure16(cfg Config) ([]Figure16Row, error) {
	cfg.fill()
	benches, comps, err := sectionBenches(&cfg)
	if err != nil {
		return nil, err
	}
	ov, err := pairOverheads(&cfg, benches, core.Options{Scheme: core.SensorRenaming, WCDL: cfg.WCDL}, cfg.flameOptions())
	if err != nil {
		return nil, err
	}
	var out []Figure16Row
	t := &stats.Table{Header: []string{"benchmark", "no-opt", "opt", "no-opt ovh", "opt ovh"}}
	for i, b := range benches {
		without, with := ov[i][0], ov[i][1]
		out = append(out, Figure16Row{
			Benchmark: b.Name, Without: without, With: with,
			ElidedBarriers: comps[i].Form.ElidedBarriers,
		})
		t.Add(b.Name, without, with, stats.OverheadPct(without), stats.OverheadPct(with))
	}
	cfg.printf("Figure 16: impact of the region-extension optimization\n%s\n", t)
	return out, nil
}

// sectionBenches returns the configured benchmarks whose Flame
// compilation forms extended sections, with those compilations.
func sectionBenches(cfg *Config) ([]*bench.Benchmark, []*core.Compiled, error) {
	var benches []*bench.Benchmark
	var comps []*core.Compiled
	for _, b := range cfg.Benchmarks {
		comp, err := core.Compile(b.Prog(), cfg.flameOptions())
		if err != nil {
			return nil, nil, err
		}
		if len(comp.Sections) > 0 {
			benches = append(benches, b)
			comps = append(comps, comp)
		}
	}
	return benches, comps, nil
}

// pairOverheads returns each benchmark's normalized execution times
// under options a and b, in one batch.
func pairOverheads(cfg *Config, benches []*bench.Benchmark, a, b core.Options) ([][2]float64, error) {
	var cells []cell
	for _, bn := range benches {
		cells = append(cells, cell{arch: cfg.Arch, bench: bn, opt: a}, cell{arch: cfg.Arch, bench: bn, opt: b})
	}
	ov, err := overheads(cells)
	if err != nil {
		return nil, err
	}
	out := make([][2]float64, len(benches))
	for i := range out {
		out[i] = [2]float64{ov[2*i], ov[2*i+1]}
	}
	return out, nil
}

// Figure17 sweeps the WCDL from 10 to 50 cycles and reports Flame's
// geomean overhead at each setting.
func Figure17(cfg Config) (stats.Series, error) {
	cfg.fill()
	labels, points := wcdlPoints(&cfg)
	s, t, err := geomeanSweep(&cfg, "Flame overhead vs WCDL", "WCDL", labels, points)
	if err != nil {
		return s, err
	}
	cfg.printf("Figure 17: Flame overhead vs WCDL (%s, %s)\n%s\n", cfg.Arch.Name, cfg.Arch.Scheduler, t)
	return s, nil
}

// wcdlPoints returns Figure 17's points: Flame at each WCDL.
func wcdlPoints(cfg *Config) (labels []string, points []cell) {
	for _, wcdl := range []int{10, 20, 30, 40, 50} {
		labels = append(labels, fmt.Sprint(wcdl))
		points = append(points, cell{arch: cfg.Arch, opt: core.Options{Scheme: core.SensorRenaming, WCDL: wcdl, ExtendRegions: true}})
	}
	return labels, points
}

// Figure18 measures Flame's overhead under the four warp scheduler
// models, each normalized to its own baseline.
func Figure18(cfg Config) (stats.Series, error) {
	cfg.fill()
	labels, points := schedulerPoints(&cfg)
	s, t, err := geomeanSweep(&cfg, "Flame overhead vs scheduler", "scheduler", labels, points)
	if err != nil {
		return s, err
	}
	cfg.printf("Figure 18: Flame overhead per warp scheduler (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// schedulerPoints returns Figure 18's points: Flame under each warp
// scheduler.
func schedulerPoints(cfg *Config) (labels []string, points []cell) {
	for _, sched := range []gpu.SchedulerKind{gpu.GTO, gpu.OLD, gpu.LRR, gpu.TwoLevel} {
		arch := cfg.Arch
		arch.Scheduler = sched
		labels = append(labels, sched.String())
		points = append(points, cell{arch: arch, opt: cfg.flameOptions()})
	}
	return labels, points
}

// Figure19 measures Flame's overhead on the four GPU architectures, each
// normalized to its own baseline.
func Figure19(cfg Config) (stats.Series, error) {
	cfg.fill()
	labels, points := archPoints(&cfg)
	s, t, err := geomeanSweep(&cfg, "Flame overhead vs architecture", "GPU", labels, points)
	if err != nil {
		return s, err
	}
	cfg.printf("Figure 19: Flame overhead per GPU architecture (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// archPoints returns Figure 19's points: Flame on each architecture at
// its own SM count (the config's architecture is not used).
func archPoints(cfg *Config) (labels []string, points []cell) {
	for _, arch := range gpu.Architectures() {
		labels = append(labels, arch.Name)
		points = append(points, cell{arch: arch, opt: cfg.flameOptions()})
	}
	return labels, points
}

// Discussion reproduces the Section IV arithmetic: false-positive rate
// from the field failure rate and masking rate, plus the measured
// average dynamic region size.
type Discussion struct {
	MaskingRate       float64
	FailuresPerDay    float64 // post-masking, from the field study
	RawErrorsPerDay   float64
	FalsePosPerDay    float64
	AvgDynRegionInsts float64
}

// DiscussionStats computes the Section IV numbers; the average dynamic
// region size is measured over the configured benchmarks under Flame as
// total source instructions over total dynamic regions (every boundary
// crossing plus each warp's final region at exit).
func DiscussionStats(cfg Config) (*Discussion, error) {
	cfg.fill()
	d := &Discussion{MaskingRate: 0.685, FailuresPerDay: 0.5}
	d.RawErrorsPerDay = d.FailuresPerDay / (1 - d.MaskingRate)
	d.FalsePosPerDay = d.RawErrorsPerDay * d.MaskingRate

	cells := make([]cell, len(cfg.Benchmarks))
	for i, b := range cfg.Benchmarks {
		cells[i] = cell{arch: cfg.Arch, bench: b, opt: cfg.flameOptions()}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var insts, regions float64
	for i, b := range cfg.Benchmarks {
		st := &results[i]
		warps := (b.Block.Count() + 31) / 32 * b.Grid.Count()
		insts += float64(st.SourceInsts)
		regions += float64(st.BoundaryCrossings) + float64(warps)
	}
	d.AvgDynRegionInsts = insts / regions
	cfg.printf("Section IV: raw errors/day=%.2f false positives/day=%.2f avg dynamic region=%.1f insts\n\n",
		d.RawErrorsPerDay, d.FalsePosPerDay, d.AvgDynRegionInsts)
	return d, nil
}

// MaskingStudy injects faults into UNPROTECTED baseline runs: without
// detection, unmasked faults become silent data corruptions (or crash
// or hang the kernel). This is the motivation experiment — the SDC rate
// Flame exists to eliminate — and the measured masking rate bounds the
// sensors' false-positive rate (Section IV). A trial is masked when the
// final memory is bit-identical to the fault-free run. Under Baseline
// nothing is recovered, so each row's coverage is its masking rate.
func MaskingStudy(cfg Config, trials int, seed uint64) (*campaign.Report, error) {
	cfg.fill()
	rep, err := runCampaign(&cfg, core.Options{Scheme: core.Baseline}, trials, seed)
	if err != nil {
		return nil, err
	}
	cfg.printf("Unprotected fault injection (bit-exact masking study)\n%s", rep.Table())
	if f := &rep.Fleet; f.Injected > 0 {
		cfg.printf("overall bit-exact masking rate: %.1f%% (%d/%d), 95%% CI [%.1f%%, %.1f%%]; without Flame every unmasked fault is an SDC, DUE or hang\n\n",
			f.Coverage*100, f.Masked, f.Injected, f.CoverageLo*100, f.CoverageHi*100)
	}
	return rep, nil
}

// AblationRow compares Flame with and without the mid-section
// verification-skip on one benchmark.
type AblationRow struct {
	Benchmark string
	Eager     float64 // overhead with interior boundaries still waiting
	Skipped   float64 // full design: interior waits skipped
}

// SectionSkipAblation quantifies the design decision that boundaries
// strictly inside an extended section need no verification wait (their
// verification cannot advance the recovery PC; collective section
// recovery subsumes them). It reruns Flame with the skip disabled on
// every section-forming benchmark.
func SectionSkipAblation(cfg Config) ([]AblationRow, error) {
	cfg.fill()
	benches, _, err := sectionBenches(&cfg)
	if err != nil {
		return nil, err
	}
	eager := cfg.flameOptions()
	eager.EagerSectionVerify = true
	ov, err := pairOverheads(&cfg, benches, eager, cfg.flameOptions())
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	t := &stats.Table{Header: []string{"benchmark", "eager-verify", "skip-verify (Flame)"}}
	for i, b := range benches {
		out = append(out, AblationRow{Benchmark: b.Name, Eager: ov[i][0], Skipped: ov[i][1]})
		t.Add(b.Name, stats.OverheadPct(ov[i][0]), stats.OverheadPct(ov[i][1]))
	}
	cfg.printf("Ablation: interior-boundary verification inside extended sections\n%s\n", t)
	return out, nil
}

// HardwareCost reproduces the Section VI-A2 arithmetic for the RBQ and
// RPT sizes.
type HardwareCost struct {
	WarpsPerScheduler int
	RBQEntryBits      int
	RBQBits           int
	RPTBits           int
}

// HardwareCostFor computes the hardware cost of Flame's structures for
// an architecture and WCDL.
func HardwareCostFor(cfg Config) HardwareCost {
	cfg.fill()
	warps := cfg.Arch.MaxWarpsPerSM / cfg.Arch.SchedulersPerSM
	entry := flame.BitsPerEntry(warps)
	hc := HardwareCost{
		WarpsPerScheduler: warps,
		RBQEntryBits:      entry,
		RBQBits:           cfg.WCDL * entry,
		RPTBits:           cfg.Arch.MaxWarpsPerSM * 32,
	}
	cfg.printf("Section VI-A2: RBQ entry=%d bits, RBQ=%d bits, RPT=%d bits\n\n",
		hc.RBQEntryBits, hc.RBQBits, hc.RPTBits)
	return hc
}

// InjectionStudy validates end-to-end recovery: it runs a fault-injection
// campaign under Flame on every benchmark and prints the report. Every
// injected error must be masked or recovered (see InjectionVerdict).
func InjectionStudy(cfg Config, trials int, seed uint64) (*campaign.Report, error) {
	cfg.fill()
	rep, err := runCampaign(&cfg, cfg.flameOptions(), trials, seed)
	if err != nil {
		return nil, err
	}
	cfg.printf("Fault-injection validation under Flame\n%s\n", rep)
	return rep, nil
}

// runCampaign runs trials data-slice injection trials per benchmark
// under opt. Trial t of a benchmark depends only on (seed, benchmark
// name, t), so a row does not depend on which other benchmarks run.
func runCampaign(cfg *Config, opt core.Options, trials int, seed uint64) (*campaign.Report, error) {
	return campaign.Run(campaign.Config{
		Arch:   cfg.Arch,
		Opt:    opt,
		Specs:  specsOf(cfg.Benchmarks),
		Trials: trials,
		Seed:   seed,
	})
}

// InjectionVerdict is the one-line summary of an injection study with
// the fleet coverage and its Wilson 95% interval. It fails if any
// benchmark had an SDC, DUE, hang or internal trial failure, and names
// every uncovered benchmark (no trial injected a fault) instead of
// counting it as recovered.
func InjectionVerdict(rep *campaign.Report) (string, error) {
	var uncovered []string
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		if b.SDC > 0 || b.DUE > 0 || b.Hang > 0 || b.Internal > 0 {
			return "", fmt.Errorf("%s: unrecovered faults: %s", b.Benchmark, b)
		}
		if b.Injected == 0 {
			uncovered = append(uncovered, b.Benchmark)
		}
	}
	f := &rep.Fleet
	fleet := fmt.Sprintf("fleet coverage %d/%d, 95%% CI [%.2f%%, %.2f%%]",
		f.Masked+f.Recovered, f.Injected, f.CoverageLo*100, f.CoverageHi*100)
	if len(uncovered) == 0 {
		return "all injected faults masked or recovered; outputs validated; " + fleet, nil
	}
	return fmt.Sprintf("injected faults masked or recovered in %d of %d benchmarks; outputs validated; %s; uncovered (no trial injected a fault): %s",
		len(rep.Benchmarks)-len(uncovered), len(rep.Benchmarks), fleet, strings.Join(uncovered, ", ")), nil
}

// FalsePositiveRow is one benchmark's spurious-recovery cost.
type FalsePositiveRow struct {
	Benchmark string
	// Overhead is the normalized execution time with nFP spurious
	// recoveries relative to the fault-free Flame run.
	Overhead float64
	NumFP    int
}

// FalsePositiveStudy measures the cost of sensor false positives
// (Section IV): recoveries triggered with no actual corruption. The
// paper argues the re-execution cost is negligible thanks to small
// regions; this experiment spreads nFP spurious detections across each
// benchmark's execution and reports the slowdown relative to Flame
// without false positives (outputs are validated in both runs).
func FalsePositiveStudy(cfg Config, nFP int) ([]FalsePositiveRow, error) {
	cfg.fill()
	specs := specsOf(cfg.Benchmarks)
	out := make([]FalsePositiveRow, len(specs))
	err := par.For(len(specs), func(i int) error {
		b, spec := cfg.Benchmarks[i], specs[i]
		comp, err := core.Compile(spec.Prog, cfg.flameOptions())
		if err != nil {
			return err
		}
		clean, err := core.RunCompiled(cfg.Arch, spec, comp, nil)
		if err != nil {
			return err
		}
		// The sensors report nFP times with no strike, spread across the
		// main launch (for multi-kernel applications the total is split
		// evenly); the injector observes the main launch only.
		window := clean.Stats.Cycles / int64(len(spec.Steps)+1)
		inj := &flame.Injector{}
		for k := 1; k <= nFP; k++ {
			inj.FalsePositives = append(inj.FalsePositives, window*int64(k)/int64(nFP+1))
		}
		fp, err := core.RunCompiled(cfg.Arch, spec, comp, inj)
		if err != nil {
			return fmt.Errorf("%d false positives: %w", nFP, err)
		}
		ov := core.Overhead(fp, clean)
		out[i] = FalsePositiveRow{Benchmark: b.Name, Overhead: ov, NumFP: int(fp.Flame.Recoveries)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"benchmark", "recoveries", "overhead vs Flame"}}
	for _, r := range out {
		t.Add(r.Benchmark, r.NumFP, stats.OverheadPct(r.Overhead))
	}
	cfg.printf("Section IV: cost of %d spurious (false-positive) recoveries\n%s\n", nFP, t)
	return out, nil
}

// OccupancyStudy tests the paper's Section III-C premise directly:
// WCDL hiding works "provided there are enough warps to schedule". It
// caps the blocks resident per SM from 1 upward and reports Flame's
// overhead at each occupancy on the configured benchmarks — the
// overhead should fall as warp-level parallelism grows.
func OccupancyStudy(cfg Config) (stats.Series, error) {
	cfg.fill()
	labels, points := occupancyPoints(&cfg)
	s, t, err := geomeanSweep(&cfg, "Flame overhead vs occupancy", "max blocks/SM", labels, points)
	if err != nil {
		return s, err
	}
	cfg.printf("Occupancy study: Flame overhead vs resident blocks per SM (WCDL=%d)\n%s\n", cfg.WCDL, t)
	return s, nil
}

// occupancyPoints returns the occupancy study's points: Flame with the
// resident blocks per SM capped at 1, 2, 4 and 8.
func occupancyPoints(cfg *Config) (labels []string, points []cell) {
	for _, maxBlocks := range []int{1, 2, 4, 8} {
		arch := cfg.Arch
		arch.MaxBlocksPerSM = maxBlocks
		labels = append(labels, fmt.Sprint(maxBlocks))
		points = append(points, cell{arch: arch, opt: cfg.flameOptions()})
	}
	return labels, points
}

// CkptPlacementRow compares checkpoint store placements on one benchmark.
type CkptPlacementRow struct {
	Benchmark string
	AtDef     float64
	AtEnd     float64
}

// CheckpointPlacementStudy compares Penny's two checkpoint placements —
// at each definition vs grouped at region ends (Figure 3(b)) — under the
// recovery-only Checkpointing scheme.
func CheckpointPlacementStudy(cfg Config) ([]CkptPlacementRow, error) {
	cfg.fill()
	atDef := core.Options{Scheme: core.Checkpointing, WCDL: cfg.WCDL}
	atEnd := atDef
	atEnd.CkptAtRegionEnd = true
	ov, err := pairOverheads(&cfg, cfg.Benchmarks, atDef, atEnd)
	if err != nil {
		return nil, err
	}
	var out []CkptPlacementRow
	t := &stats.Table{Header: []string{"benchmark", "at-def", "at-region-end"}}
	for i, b := range cfg.Benchmarks {
		out = append(out, CkptPlacementRow{Benchmark: b.Name, AtDef: ov[i][0], AtEnd: ov[i][1]})
		t.Add(b.Name, stats.OverheadPct(ov[i][0]), stats.OverheadPct(ov[i][1]))
	}
	cfg.printf("Checkpoint placement study (Checkpointing scheme)\n%s\n", t)
	return out, nil
}
