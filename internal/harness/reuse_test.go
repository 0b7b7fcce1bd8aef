package harness

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// cellRun is what one run of a cell leaves behind.
type cellRun struct {
	stats gpu.Stats
	flame flame.Stats
	mem   []uint32
}

// runOn runs cell c of the given spec on r and returns its results and
// a copy of the final memory.
func runOn(t *testing.T, r *core.Runner, c cell, spec *core.KernelSpec) cellRun {
	t.Helper()
	comp, err := core.Compile(spec.Prog, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(c.arch, spec, comp, nil, core.RunOpts{})
	if err != nil {
		t.Fatalf("%s/%s: %v", c.bench.Name, c.opt.Scheme, err)
	}
	return cellRun{res.Stats, res.Flame, slices.Clone(r.Device().Mem.Words())}
}

// sameRun reports how two runs of a cell differ, or "".
func sameRun(got, want cellRun) string {
	switch {
	case got.stats != want.stats:
		return fmt.Sprintf("gpu.Stats\n got  %+v\n want %+v", got.stats, want.stats)
	case got.flame != want.flame:
		return fmt.Sprintf("flame.Stats\n got  %+v\n want %+v", got.flame, want.flame)
	case !slices.Equal(got.mem, want.mem):
		return "final memory differs"
	}
	return ""
}

// TestRunnerReuseMatchesFreshDevices checks that a cell's results do not
// depend on what its device ran before, which lets each grid worker keep
// one core.Runner. Every Figure 13/14 cell at 4 SMs (Baselines
// included) runs in shuffled order on one Runner, and again each on a
// new one: gpu.Stats, Flame stats and final memory must be equal. Three
// of the reused Runner's runs end badly just before a cell: a DUE (a
// global fault), a Hang (the cycle budget) and a panic in a hook,
// recovered here, each in the middle of a Flame launch. At the end the
// reused device also resumes a launch from a copy taken after some of
// its SMs drained, and must finish it as the uninterrupted run does.
func TestRunnerReuseMatchesFreshDevices(t *testing.T) {
	cfg := Default()
	cfg.Arch.NumSMs = 4
	if raceBuild {
		cfg.Benchmarks = nil
		for _, name := range []string{"Triad", "Histogram", "SGEMM", "SRAD"} {
			cfg.Benchmarks = append(cfg.Benchmarks, fresh(t, name))
		}
	}
	batch, _, _ := withBaselines(gridCells(&cfg))
	specs := make([]*core.KernelSpec, len(batch))
	for i, c := range batch {
		specs[i] = c.bench.Spec()
	}
	order := rand.New(rand.NewSource(29)).Perm(len(batch))
	reused := new(core.Runner)
	disrupt := map[int]func(){
		len(order) / 4:     func() { dueRun(t, reused, cfg.Arch) },
		len(order) / 2:     func() { hangRun(t, reused, cfg.Arch) },
		len(order) * 3 / 4: func() { panicRun(t, reused, cfg.Arch) },
	}
	for k, i := range order {
		if f := disrupt[k]; f != nil {
			f()
		}
		got := runOn(t, reused, batch[i], specs[i])
		want := runOn(t, new(core.Runner), batch[i], specs[i])
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("%s/%s (run %d on the reused device): %s", batch[i].bench.Name, batch[i].opt.Scheme, k, diff)
		}
	}
	resumeAfterDrain(t, reused, cfg.Arch)
	// After the resumes the device still runs cells as a new one does.
	for _, i := range order[:4] {
		got := runOn(t, reused, batch[i], specs[i])
		want := runOn(t, new(core.Runner), batch[i], specs[i])
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("%s/%s after the resume: %s", batch[i].bench.Name, batch[i].opt.Scheme, diff)
		}
	}
}

// compiled returns a cell of the named benchmark under opt on arch,
// with its spec and compilation.
func compiled(t *testing.T, name string, arch gpu.Config, opt core.Options) (cell, *core.KernelSpec, *core.Compiled) {
	t.Helper()
	b := fresh(t, name)
	c := cell{arch: arch, bench: b, opt: opt}
	spec := b.Spec()
	comp, err := core.Compile(spec.Prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c, spec, comp
}

// dueRun ends a Flame LUD run with a global fault: every buffer address
// points past the end of memory once the launch is under way.
func dueRun(t *testing.T, r *core.Runner, arch gpu.Config) {
	c, spec, comp := compiled(t, "LUD", arch, core.FlameOptions())
	spec.Params = slices.Clone(spec.Params)
	for i := range spec.Params {
		spec.Params[i] = math.MaxUint32 - 3
	}
	_, err := r.Run(c.arch, spec, comp, nil, core.RunOpts{})
	if err == nil || errors.Is(err, gpu.ErrCycleLimit) {
		t.Fatalf("LUD with out-of-range buffers: got %v, want a DUE", err)
	}
}

// hangRun stops a Sensor+Checkpointing SGEMM run (checkpoint buffers,
// RBQ entries and pending sections live) at its cycle budget.
func hangRun(t *testing.T, r *core.Runner, arch gpu.Config) {
	c, spec, comp := compiled(t, "SGEMM", arch, core.Options{Scheme: core.SensorCheckpointing, WCDL: 20, ExtendRegions: true})
	_, err := r.Run(c.arch, spec, comp, nil, core.RunOpts{MaxCycles: 3000})
	if !errors.Is(err, gpu.ErrCycleLimit) {
		t.Fatalf("SGEMM at a 3000-cycle budget: got %v, want a Hang", err)
	}
}

// panicRun panics out of a Flame Histogram run from a hook, as a broken
// scheme would, and recovers.
func panicRun(t *testing.T, r *core.Runner, arch gpu.Config) {
	c, spec, comp := compiled(t, "Histogram", arch, core.FlameOptions())
	n := 0
	hooks := &gpu.Hooks{OnExecuted: func(*gpu.Device, *gpu.SM, *gpu.Warp, int) {
		if n++; n == 200 {
			panic("hook failure")
		}
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram run with a panicking hook did not panic")
		}
	}()
	r.Run(c.arch, spec, comp, nil, core.RunOpts{Hooks: hooks})
}

// drainedSMs counts the SMs with nothing left to do once every block
// has been dispatched, or returns 0 before then.
func drainedSMs(d *gpu.Device) int {
	resident, idle := 0, 0
	for _, sm := range d.SMs {
		n := 0
		for _, b := range sm.Blocks {
			if b.GlobalID >= 0 {
				n++
			}
		}
		resident += n
		if n == 0 {
			idle++
		}
	}
	if int(d.Stats.BlocksRun)+resident < d.Launch().Grid.Count() {
		return 0
	}
	return idle
}

// resumeAfterDrain pauses Flame launches once some SMs have drained and
// others still run, copies each onto r's device under a copy of its
// controller, and checks that the resumed launch ends as the
// uninterrupted run on a new device does. The launches leave different
// SMs running, one after another on the device.
func resumeAfterDrain(t *testing.T, r *core.Runner, arch gpu.Config) {
	resumed := 0
	for _, name := range []string{"NN", "BP", "Histogram", "Triad", "SGEMM", "PF"} {
		c, spec, comp := compiled(t, name, arch, core.FlameOptions())
		if len(spec.Steps) > 0 {
			continue
		}
		want := runOn(t, new(core.Runner), c, spec)
		paused, err := gpu.NewDevice(arch, spec.MemBytes)
		if err != nil {
			t.Fatal(err)
		}
		spec.Setup(paused.Mem.Words())
		init := slices.Clone(paused.Mem.Words())
		l := &gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
		ctl := comp.Controller()
		if err := paused.Start(l, ctl.Hooks()); err != nil {
			t.Fatal(err)
		}
		drained := 0
		for until := int64(64); until < want.stats.Cycles; until += 64 {
			if _, err := paused.Continue(until); err != nil {
				t.Fatal(err)
			}
			if drained = drainedSMs(paused); drained > 0 {
				break
			}
		}
		if drained == 0 || drained == len(paused.SMs) {
			continue
		}
		at := paused.Cycle()
		dev := r.Device()
		if len(dev.Mem.Words()) != len(init) {
			dev.Mem = gpu.NewGlobalMem(spec.MemBytes)
		}
		copy(dev.Mem.Words(), init)
		dev.Mem.ResetDirty()
		rctl := new(flame.Controller)
		rctl.CopyFrom(ctl)
		if err := dev.CopyFrom(paused, l, rctl.Hooks()); err != nil {
			t.Fatal(err)
		}
		st, err := dev.Continue(math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		got := cellRun{*st, rctl.Stats, dev.Mem.Words()}
		if diff := sameRun(got, want); diff != "" {
			t.Fatalf("%s resumed at cycle %d with %d of %d SMs drained: %s",
				name, at, drained, len(dev.SMs), diff)
		}
		t.Logf("%s resumed at cycle %d of %d with %d of %d SMs drained", name, at, want.stats.Cycles, drained, len(dev.SMs))
		resumed++
	}
	if resumed == 0 {
		t.Fatal("no benchmark drained some but not all SMs before finishing: the resume is not covered")
	}
}
