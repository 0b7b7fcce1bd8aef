// Package harness reproduces every table and figure of the paper's
// evaluation section: the sensor-deployment curves (Figure 12, Table II),
// the per-benchmark and average overhead comparisons (Figures 13-15), the
// region-extension ablation (Figure 16), the WCDL / scheduler /
// architecture sensitivity studies (Figures 17-19), the Section IV
// discussion numbers, the hardware-cost arithmetic (Section VI-A2), and
// a fault-injection validation campaign.
package harness

import (
	"fmt"
	"io"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/par"
	"flame/internal/stats"
)

// Config selects what the experiments run on.
type Config struct {
	// Arch is the GPU configuration (default GTX480).
	Arch gpu.Config
	// WCDL is the default sensor latency (default 20 cycles).
	WCDL int
	// Benchmarks restricts the workloads (default bench.All()).
	Benchmarks []*bench.Benchmark
	// Out receives the printed tables (nil = discard).
	Out io.Writer
}

// Default returns the paper's default setup: GTX480, 20-cycle WCDL, GTO,
// all 34 benchmarks.
func Default() Config {
	return Config{Arch: gpu.GTX480(), WCDL: 20, Benchmarks: bench.All()}
}

// QuickBenchmarks is the structurally diverse 8-benchmark subset that
// flamebench -quick runs.
var QuickBenchmarks = []string{"Triad", "SGEMM", "LUD", "Histogram", "BS", "WT", "BFS", "Hotspot"}

func (c *Config) fill() {
	if c.Arch.Name == "" {
		c.Arch = gpu.GTX480()
	}
	if c.WCDL == 0 {
		c.WCDL = 20
	}
	if c.Benchmarks == nil {
		c.Benchmarks = bench.All()
	}
}

func (c *Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// cell is one independent simulation: a benchmark compiled with the
// scheme options and run on an architecture.
type cell struct {
	arch  gpu.Config
	bench *bench.Benchmark
	opt   core.Options
}

// runCells simulates every cell and returns the results in cell order.
// Every spec is resolved on the calling goroutine first, because
// Benchmark.Prog assembles lazily without synchronisation; the cells
// then run on GOMAXPROCS workers (see par.For), so results, printed
// tables and the error returned are the same at any worker count.
func runCells(cells []cell) ([]*core.Result, error) {
	specs := make([]*core.KernelSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.bench.Spec()
	}
	res := make([]*core.Result, len(cells))
	err := par.For(len(cells), func(i int) error {
		c := cells[i]
		r, err := core.Run(c.arch, specs[i], c.opt)
		if err != nil {
			if c.opt.Scheme == core.Baseline {
				return fmt.Errorf("baseline %s: %w", c.bench.Name, err)
			}
			return fmt.Errorf("%s/%s: %w", c.bench.Name, c.opt.Scheme, err)
		}
		res[i] = r
		return nil
	})
	return res, err
}

// specsOf resolves the benchmarks' specs on the calling goroutine, as
// parallel work must.
func specsOf(benches []*bench.Benchmark) []*core.KernelSpec {
	specs := make([]*core.KernelSpec, len(benches))
	for i, b := range benches {
		specs[i] = b.Spec()
	}
	return specs
}

// baselineKey identifies a baseline run. The key holds the whole
// architecture, not just its name and scheduler: the occupancy study
// varies MaxBlocksPerSM under one name.
type baselineKey struct {
	arch  gpu.Config
	bench string
}

// overheads runs every cell with its benchmark's Baseline run on the
// cell's architecture, all in one batch, and returns each cell's
// execution time normalized to that baseline. A baseline is an ordinary
// cell, placed just before the first cell that needs it and shared by
// the later ones.
func overheads(cells []cell) ([]float64, error) {
	batch := make([]cell, 0, 2*len(cells))
	at := make([]int, len(cells))   // batch index of cell i
	base := make([]int, len(cells)) // batch index of cell i's baseline
	seen := map[baselineKey]int{}
	for i, c := range cells {
		k := baselineKey{c.arch, c.bench.Name}
		j, ok := seen[k]
		if !ok {
			j = len(batch)
			seen[k] = j
			batch = append(batch, cell{arch: c.arch, bench: c.bench, opt: core.Options{Scheme: core.Baseline}})
		}
		base[i], at[i] = j, len(batch)
		batch = append(batch, c)
	}
	res, err := runCells(batch)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cells))
	for i := range cells {
		out[i] = float64(res[at[i]].Stats.Cycles) / float64(res[base[i]].Stats.Cycles)
	}
	return out, nil
}

// geomeanSweep runs a sensitivity sweep: at each point (a cell without
// a benchmark) it measures the geometric mean over the configured
// benchmarks of the normalized execution time, all points in one batch.
// It returns the series and a table whose first column, headed column,
// holds the points' labels.
func geomeanSweep(cfg *Config, name, column string, labels []string, points []cell) (stats.Series, *stats.Table, error) {
	s := stats.Series{Name: name}
	var cells []cell
	for _, p := range points {
		for _, b := range cfg.Benchmarks {
			cells = append(cells, cell{arch: p.arch, bench: b, opt: p.opt})
		}
	}
	ov, err := overheads(cells)
	if err != nil {
		return s, nil, err
	}
	n := len(cfg.Benchmarks)
	t := &stats.Table{Header: []string{column, "geomean", "overhead"}}
	for i, label := range labels {
		g := stats.Geomean(ov[i*n : (i+1)*n])
		s.Labels = append(s.Labels, label)
		s.Values = append(s.Values, g)
		t.Add(label, g, stats.OverheadPct(g))
	}
	return s, t, nil
}

// flameOptions returns the full Flame configuration at the config's WCDL.
func (c *Config) flameOptions() core.Options {
	return core.Options{Scheme: core.SensorRenaming, WCDL: c.WCDL, ExtendRegions: true}
}

// OverheadMatrix is the result of Figures 13-15: normalized execution
// times indexed [scheme][benchmark].
type OverheadMatrix struct {
	Benchmarks []string
	Schemes    []core.Scheme
	// Norm[i][j] is scheme i's normalized time on benchmark j.
	Norm [][]float64
}

// Geomeans returns each scheme's geometric-mean normalized time
// (Figure 15).
func (m *OverheadMatrix) Geomeans() []float64 {
	out := make([]float64, len(m.Schemes))
	for i := range m.Schemes {
		out[i] = stats.Geomean(m.Norm[i])
	}
	return out
}

// SchemeRow returns the row of a scheme, or nil.
func (m *OverheadMatrix) SchemeRow(s core.Scheme) []float64 {
	for i, sc := range m.Schemes {
		if sc == s {
			return m.Norm[i]
		}
	}
	return nil
}

// gridSchemes are the Figure 13/14 schemes in column order.
var gridSchemes = []core.Scheme{
	core.Renaming, core.Checkpointing,
	core.SensorRenaming, core.SensorCheckpointing,
	core.DupRenaming, core.DupCheckpointing,
	core.HybridRenaming, core.HybridCheckpointing,
}

// gridCells returns the Figure 13/14 cells, scheme-major, without their
// baselines.
func gridCells(cfg *Config) []cell {
	var cells []cell
	for _, s := range gridSchemes {
		opt := core.Options{Scheme: s, WCDL: cfg.WCDL}
		if s == core.SensorRenaming {
			opt.ExtendRegions = true // the full Flame design
		}
		for _, b := range cfg.Benchmarks {
			cells = append(cells, cell{arch: cfg.Arch, bench: b, opt: opt})
		}
	}
	return cells
}

// Figure13_14 measures normalized execution time for every non-baseline
// scheme on every benchmark (the paper's per-application bars), with
// Flame = Sensor+Renaming including the region-extension optimization.
func Figure13_14(cfg Config) (*OverheadMatrix, error) {
	cfg.fill()
	schemes := gridSchemes
	m := &OverheadMatrix{Schemes: schemes}
	for _, b := range cfg.Benchmarks {
		m.Benchmarks = append(m.Benchmarks, b.Name)
	}
	cells := gridCells(&cfg)
	ov, err := overheads(cells)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Benchmarks)
	for i := range schemes {
		m.Norm = append(m.Norm, ov[i*n:(i+1)*n:(i+1)*n])
	}

	t := &stats.Table{Header: append([]string{"benchmark"}, schemeNames(schemes)...)}
	for j, name := range m.Benchmarks {
		cells := []any{name}
		for i := range schemes {
			cells = append(cells, m.Norm[i][j])
		}
		t.Add(cells...)
	}
	cfg.printf("Figure 13/14: normalized execution time (%s, WCDL=%d, %s)\n%s\n",
		cfg.Arch.Name, cfg.WCDL, cfg.Arch.Scheduler, t)
	return m, nil
}

// Figure15 prints the geometric means of a Figure 13/14 matrix.
func Figure15(cfg Config, m *OverheadMatrix) []stats.Series {
	g := m.Geomeans()
	t := &stats.Table{Header: []string{"scheme", "geomean", "overhead"}}
	labels := make([]string, len(m.Schemes))
	for i, s := range m.Schemes {
		labels[i] = s.String()
		t.Add(s.String(), g[i], stats.OverheadPct(g[i]))
	}
	cfg.printf("Figure 15: average normalized execution time (geomean)\n%s\n", t)
	return []stats.Series{{Name: "geomean", Labels: labels, Values: g}}
}

func schemeNames(ss []core.Scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.String()
	}
	return out
}
