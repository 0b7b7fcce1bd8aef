package harness

import (
	"fmt"

	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/stats"
	"flame/internal/telemetry"
)

// SlotShareRow is one benchmark × scheme row of the telemetry study:
// where every scheduler issue slot of the run went, as shares of the
// machine's total issue capacity (shares sum to 1 by construction).
type SlotShareRow struct {
	Benchmark string
	Scheme    string
	Cycles    int64
	Share     [gpu.NumSlotReasons]float64
}

// TelemetryStudy attributes every scheduler slot of every benchmark
// under Baseline and under the full Flame scheme, and prints the
// side-by-side share table. It is the discussion companion to the
// overhead figures: the Flame-minus-Baseline delta in the rbq column is
// exactly where the WCDL wait cycles go, and the issued column shows how
// much of that wait other warps absorbed.
func TelemetryStudy(cfg Config) ([]SlotShareRow, error) {
	cfg.fill()
	schemes := []struct {
		name string
		opt  core.Options
	}{
		{"baseline", core.Options{Scheme: core.Baseline}},
		{"flame", cfg.flameOptions()},
	}
	var rows []SlotShareRow
	for _, b := range cfg.Benchmarks {
		for _, s := range schemes {
			col := telemetry.NewCollector(&cfg.Arch)
			comp, err := core.Compile(b.Spec().Prog, s.opt)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, s.name, err)
			}
			res, err := new(core.Runner).Run(cfg.Arch, b.Spec(), comp, nil,
				core.RunOpts{Hooks: col.Hooks()})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, s.name, err)
			}
			row := SlotShareRow{Benchmark: b.Name, Scheme: s.name, Cycles: res.Stats.Cycles}
			tot := col.Totals()
			if all := col.TotalSlots(); all > 0 {
				for r := range tot {
					row.Share[r] = float64(tot[r]) / float64(all)
				}
			}
			rows = append(rows, row)
		}
	}

	t := &stats.Table{Header: []string{
		"benchmark", "scheme", "cycles",
		"issued", "scoreboard", "memory", "barrier", "rbq", "empty", "drained",
	}}
	for _, r := range rows {
		cells := []any{r.Benchmark, r.Scheme, r.Cycles}
		for _, s := range r.Share {
			cells = append(cells, fmt.Sprintf("%.1f%%", s*100))
		}
		t.Add(cells...)
	}
	cfg.printf("stall attribution (share of SMs × schedulers × cycles issue slots):\n%s", t)
	return rows, nil
}
