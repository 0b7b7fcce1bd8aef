package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/harness"
)

// gridSchemes is harness.Figure13_14's scheme order.
var gridSchemes = []core.Scheme{
	core.Renaming, core.Checkpointing,
	core.SensorRenaming, core.SensorCheckpointing,
	core.DupRenaming, core.DupCheckpointing,
	core.HybridRenaming, core.HybridCheckpointing,
}

// paperFlameGeomean is the paper's Fig. 15 Flame normalized time
// (+0.6%), a GPGPU-Sim figure printed for reference only.
const paperFlameGeomean = 1.006

// gridOptions mirrors the options harness.Figure13_14 compiles a scheme
// with: Flame is Sensor+Renaming with region extension.
func gridOptions(s core.Scheme) core.Options {
	if s == core.Baseline {
		return core.Options{Scheme: core.Baseline}
	}
	return core.Options{Scheme: s, WCDL: 20, ExtendRegions: s == core.SensorRenaming}
}

// freshSuite copies the registered benchmarks and assembles each copy's
// kernel. The registry caches assembled programs, so working on copies
// makes every call pay the assembly cost that grid set-up measures.
func freshSuite(n int) []*bench.Benchmark {
	all := bench.All()
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	for i, b := range all {
		c := *b
		c.Prog()
		all[i] = &c
	}
	return all
}

// gridRep runs the Fig. 13-15 grid once through the harness.
func gridRep(n int) (rep, *harness.OverheadMatrix, error) {
	start := time.Now()
	suite := freshSuite(n)
	setup := time.Since(start)
	cfg := harness.Config{Arch: gpu.GTX480(), WCDL: 20, Benchmarks: suite}
	m, err := harness.Figure13_14(cfg)
	if err != nil {
		return rep{}, nil, err
	}
	harness.Figure15(cfg, m)
	cells := len(suite) * (len(gridSchemes) + 1)
	return rep{wall: time.Since(start), setup: setup, ops: cells}, m, nil
}

// gridPass is the grid recomputed cell by cell.
type gridPass struct {
	norm          [][]float64
	cells, failed int
	cycles        int64
	statsDigest   string
	root          int // root span id when traced
}

// directGrid recomputes the Fig. 13/14 matrix through core.Compile and
// core.RunCompiled: the runs harness.Figure13_14 makes, in its order
// (each benchmark's baseline on first use), so that each cell's compile
// and simulate time and its gpu.Stats are observable. Follow-on kernel
// steps compile inside RunCompiled and so count as simulation. tr, when
// non-nil, records a span per cell and per layer call.
func directGrid(suite []*bench.Benchmark, setup time.Duration, tr *tracer) *gridPass {
	arch := gpu.GTX480()
	p := &gridPass{}
	h := sha256.New()
	start := time.Now()
	var cellSpans []span
	cell := func(b *bench.Benchmark, opt core.Options) *core.Result {
		spec := b.Spec()
		t0 := time.Now()
		comp, err := core.Compile(spec.Prog, opt)
		t1 := time.Now()
		var res *core.Result
		if err == nil {
			res, err = core.RunCompiled(arch, spec, comp, nil)
		}
		t2 := time.Now()
		cellSpans = append(cellSpans, span{name: "harness.cell", start: t0, end: t2},
			span{name: "core.compile", start: t0, end: t1}, span{name: "gpu.sim", start: t1, end: t2})
		p.cells++
		if err != nil {
			p.failed++
			fmt.Fprintf(h, "%s/%s error %v\n", b.Name, opt.Scheme, err)
			return nil
		}
		fmt.Fprintf(h, "%s/%s %+v\n", b.Name, opt.Scheme, res.Stats)
		p.cycles += res.Stats.Cycles
		return res
	}
	base := map[string]float64{}
	for _, s := range gridSchemes {
		row := make([]float64, 0, len(suite))
		for _, b := range suite {
			bc, ok := base[b.Name]
			if !ok {
				if r := cell(b, gridOptions(core.Baseline)); r != nil {
					bc = float64(r.Stats.Cycles)
				}
				base[b.Name] = bc
			}
			v := math.NaN()
			if r := cell(b, gridOptions(s)); r != nil && bc > 0 {
				v = float64(r.Stats.Cycles) / bc
			}
			row = append(row, v)
		}
		p.norm = append(p.norm, row)
	}
	p.statsDigest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		p.root = tr.add(0, "harness.grid", 0, start.Add(-setup), time.Now())
		tr.add(p.root, "harness.setup", 0, start.Add(-setup), start)
		for i := 0; i < len(cellSpans); i += 3 {
			c := tr.add(p.root, cellSpans[i].name, 0, cellSpans[i].start, cellSpans[i].end)
			for _, s := range cellSpans[i+1 : i+3] {
				tr.add(c, s.name, 0, s.start, s.end)
			}
		}
	}
	return p
}

// geomeanStrings formats Figure 15 geomeans exactly.
func geomeanStrings(m *harness.OverheadMatrix) []string {
	var out []string
	for _, g := range m.Geomeans() {
		out = append(out, strconv.FormatFloat(g, 'g', -1, 64))
	}
	return out
}

// checkGrid compares the harness matrix against the direct recomputation
// and, when pinned, the pinned geomeans and stats digest.
func checkGrid(out *outcome, m *harness.OverheadMatrix, p *gridPass, pn *pins) {
	if p.failed > 0 {
		out.problem("grid: %d of %d cells failed to compile, run or validate", p.failed, p.cells)
	}
	for i := range m.Norm {
		for j := range m.Norm[i] {
			if math.Float64bits(m.Norm[i][j]) != math.Float64bits(p.norm[i][j]) {
				out.problem("grid: %s/%s: harness %v != direct %v",
					m.Benchmarks[j], m.Schemes[i], m.Norm[i][j], p.norm[i][j])
			}
		}
	}
	if pn == nil {
		return
	}
	if p.statsDigest != pn.gridStats {
		out.problem("grid: gpu.Stats digest %s, pinned %s", p.statsDigest, pn.gridStats)
	}
	got := geomeanStrings(m)
	if fmt.Sprint(got) != fmt.Sprint(pn.gridGeomeans) {
		out.problem("grid: geomeans %v, pinned %v", got, pn.gridGeomeans)
	}
}

func sameGeomeans(a, b *harness.OverheadMatrix) bool {
	return fmt.Sprint(geomeanStrings(a)) == fmt.Sprint(geomeanStrings(b))
}

// runGrid drives the grid workload: the paper's headline experiment,
// 34 benchmarks x (Baseline + 8 schemes) on one goroutine.
func runGrid(o *options) (*outcome, error) {
	n := o.scale.gridBenches
	out := &outcome{}
	// Set-up samples: assembling the suite, repeated because one
	// assembly is short, and scaled by the host speed just before.
	speed := speedFactor(calibrate())
	var setups []time.Duration
	var scaled []float64
	var suite []*bench.Benchmark
	for i := 0; i < o.scale.gridSetups; i++ {
		t0 := time.Now()
		suite = freshSuite(n)
		setups = append(setups, time.Since(t0))
		scaled = append(scaled, setups[i].Seconds()*speed)
	}
	// The direct pass pins every cell's gpu.Stats and warms the process
	// up before anything is timed.
	var tr *tracer
	if o.traced {
		tr = &tracer{run: fmt.Sprintf("grid/seed%d", o.seed)}
	}
	p := directGrid(suite, setups[len(setups)-1], tr)

	if !o.traced {
		var first *harness.OverheadMatrix
		reps, err := measure(o.budget, func() (rep, error) {
			r, m, err := gridRep(n)
			if err != nil {
				return r, err
			}
			if first == nil {
				first = m
				checkGrid(out, m, p, o.pins)
			} else if !sameGeomeans(first, m) {
				out.problem("grid: geomeans differ between repetitions")
			}
			r.simCycles = p.cycles
			r.failed = p.failed
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		for _, r := range reps {
			out.attempted += r.ops
			out.failed += r.failed
		}
		out.reps = reps
		out.metrics = endToEnd(reps, scaled)
		printFlame(o, first)
		return out, nil
	}

	// Traced: one untraced harness repetition is the overhead reference;
	// the traced repetition is the direct pass above.
	r, m, err := gridRep(n)
	if err != nil {
		return nil, err
	}
	checkGrid(out, m, p, o.pins)
	printFlame(o, m)
	out.attempted, out.failed = p.cells, p.failed
	met := zeroLayerMetrics()
	root := &tr.spans[p.root-1]
	simS := tr.sum("gpu.sim").Seconds()
	met["harness.cells"] = float64(p.cells)
	met["core.compile_s"] = tr.sum("core.compile").Seconds()
	met["gpu.sim_s"] = simS
	met["gpu.sim_cycles"] = float64(p.cycles)
	met["gpu.ns_per_simcycle"] = simS * 1e9 / float64(p.cycles)
	met["trace.overhead_frac"] = root.dur().Seconds()/r.wall.Seconds() - 1
	met["trace.span_coverage"] = tr.coverage(p.root)
	out.metrics = met
	return out, writeTrace(o, tr, p.root)
}

// printFlame prints Flame's geomean next to the paper's figure.
func printFlame(o *options, m *harness.OverheadMatrix) {
	if m == nil {
		return
	}
	for i, s := range m.Schemes {
		if s == core.SensorRenaming {
			g := m.Geomeans()[i]
			fmt.Fprintf(o.log, "Flame geomean normalized time %.4f (%+.2f%%); paper (GPGPU-Sim) %.3f (%+.1f%%); the model is not validated against hardware\n",
				g, 100*(g-1), paperFlameGeomean, 100*(paperFlameGeomean-1))
		}
	}
}

// zeroLayerMetrics returns every per-layer metric at 0.
func zeroLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, u := range perLayerUnits {
		m[u.name] = 0
	}
	return m
}

// writeTrace saves the Chrome trace and prints the per-layer table of
// the traced repetition.
func writeTrace(o *options, tr *tracer, root int) error {
	path, err := tr.saveChrome(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "trace: %s (%d spans, %.1f%% of wall in leaf spans)\n%s",
		path, len(tr.spans), 100*tr.coverage(root), tr.layerTable(root))
	return nil
}
