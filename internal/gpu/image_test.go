package gpu_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// resumeRun is one main launch of a benchmark on its own device.
type resumeRun struct {
	dev   *gpu.Device
	ctl   *flame.Controller
	slots *slotCounts // nil unless drained SMs are stepped
	hooks *gpu.Hooks
	l     *gpu.Launch
}

// slotCounts is a slot sink that counts credits by reason. A device
// with a sink attached steps its drained SMs too, to credit their slots.
type slotCounts [gpu.NumSlotReasons]int64

func (c *slotCounts) CreditSlot(_, _, _ int, r gpu.SlotReason, _ int64) { c[r]++ }

// startRun builds a device of cfg holding the benchmark's input and
// gives the run hooks for comp (see newHooks).
func startRun(t *testing.T, cfg gpu.Config, spec *core.KernelSpec, comp *core.Compiled, stepDrained bool) *resumeRun {
	t.Helper()
	d, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		t.Fatal(err)
	}
	spec.Setup(d.Mem.Words())
	r := &resumeRun{dev: d, l: &gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}}
	r.newHooks(comp, stepDrained)
	return r
}

// newHooks attaches a new controller for comp (none for a scheme
// without one) and, with stepDrained, a new slot sink.
func (r *resumeRun) newHooks(comp *core.Compiled, stepDrained bool) {
	r.ctl, r.slots, r.hooks = comp.Controller(), nil, nil
	if r.ctl != nil {
		r.hooks = r.ctl.Hooks()
	}
	if stepDrained {
		r.slots = new(slotCounts)
		r.hooks = gpu.CombineHooks(r.hooks, &gpu.Hooks{Slots: r.slots})
	}
}

// resumeCase checks one benchmark, scheme and configuration: the main
// launch paused at a fraction of its run and copied onto another device
// that has just run a different kernel (the same benchmark under the
// other scheme) ends with the memory, dirty pages, gpu.Stats and
// controller stats of the uninterrupted launch — and so does the paused
// launch continued in place. On its way the launch pauses at several
// cycles, as a golden cursor does, each exactly on the cycle asked for.
// With stepDrained every run has a slot sink attached, so the loop
// steps drained SMs instead of dropping them: every run then credits
// one slot per scheduler per cycle, and the copy's credits continue
// the paused run's.
func resumeCase(t *testing.T, cfg gpu.Config, spec *core.KernelSpec, comp, other *core.Compiled, frac float64, stepDrained bool) {
	t.Helper()
	ref := startRun(t, cfg, spec, comp, stepDrained)
	want, err := ref.dev.Run(ref.l, ref.hooks)
	if err != nil {
		t.Fatal(err)
	}
	if ref.slots != nil {
		var n int64
		for _, c := range ref.slots {
			n += c
		}
		if slots := want.Cycles * int64(cfg.NumSMs*cfg.SchedulersPerSM); n != slots {
			t.Fatalf("%d slot credits over %d cycles, want %d", n, want.Cycles, slots)
		}
	}

	paused := startRun(t, cfg, spec, comp, stepDrained)
	if err := paused.dev.Start(paused.l, paused.hooks); err != nil {
		t.Fatal(err)
	}
	at := int64(float64(want.Cycles) * frac)
	for _, stop := range []int64{at / 3, at / 3, at/2 + 1, at} {
		if _, err := paused.dev.Continue(stop); err != nil {
			t.Fatal(err)
		}
		if c := paused.dev.Cycle(); c != stop {
			t.Fatalf("paused at cycle %d, asked %d of %d", c, stop, want.Cycles)
		}
	}
	var prefix slotCounts
	if paused.slots != nil {
		prefix = *paused.slots
	}
	// The other kernel leaves warps, blocks, pools, caches and
	// scheduler state behind on the device the launch is copied onto.
	resumed := startRun(t, cfg, spec, other, stepDrained)
	if _, err := resumed.dev.Run(resumed.l, resumed.hooks); err != nil {
		t.Fatal(err)
	}
	resumed.l = paused.l
	resumed.newHooks(comp, stepDrained)
	words := resumed.dev.Mem.Words()
	clear(words)
	spec.Setup(words)
	resumed.dev.Mem.ResetDirty()
	if err := resumed.dev.CopyFrom(paused.dev, resumed.l, resumed.hooks); err != nil {
		t.Fatal(err)
	}
	if resumed.ctl != nil {
		resumed.ctl.CopyFrom(paused.ctl)
	}

	for _, r := range []struct {
		name string
		run  *resumeRun
		// before holds the slot credits of the launch's cycles the run's
		// own sink did not see.
		before slotCounts
	}{{"resumed on another device", resumed, prefix}, {"continued in place", paused, slotCounts{}}} {
		got, err := r.run.dev.Continue(math.MaxInt64)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if *got != *want {
			t.Fatalf("%s: stats differ from the uninterrupted launch:\n got  %+v\n want %+v", r.name, *got, *want)
		}
		if !slices.Equal(r.run.dev.Mem.Words(), ref.dev.Mem.Words()) {
			t.Fatalf("%s: final memory differs from the uninterrupted launch", r.name)
		}
		if !slices.Equal(r.run.dev.Mem.DirtyPages(), ref.dev.Mem.DirtyPages()) {
			t.Fatalf("%s: dirty pages differ from the uninterrupted launch", r.name)
		}
		if ref.ctl != nil && r.run.ctl.Stats != ref.ctl.Stats {
			t.Fatalf("%s: controller stats differ:\n got  %+v\n want %+v", r.name, r.run.ctl.Stats, ref.ctl.Stats)
		}
		if r.run.slots != nil {
			slots := r.before
			for i, c := range r.run.slots {
				slots[i] += c
			}
			if slots != *ref.slots {
				t.Fatalf("%s: slot credits differ:\n got  %v\n want %v", r.name, slots, *ref.slots)
			}
		}
	}
}

// TestImageResumeMatchesUninterrupted is the resume contract behind
// trials that start from the golden cursor: every benchmark at 4 SMs,
// under Baseline and under Flame with its controller copied too, under
// each scheduler, paused at a quarter, a half or three quarters of its
// launch. Each case runs twice: with drained SMs dropped from the loop,
// as in campaigns, and with noSkip, where a slot sink makes the loop
// step every SM on every cycle, as telemetry runs do. A race-detector
// build checks every eighth benchmark.
func TestImageResumeMatchesUninterrupted(t *testing.T) {
	schemes := []core.Options{{Scheme: core.Baseline}, core.FlameOptions()}
	for i, b := range bench.All() {
		if raceBuild && i%8 != 0 {
			continue
		}
		spec := b.Spec()
		comps := make([]*core.Compiled, len(schemes))
		for k, opt := range schemes {
			var err error
			if comps[k], err = core.Compile(spec.Prog, opt); err != nil {
				t.Fatal(err)
			}
		}
		for k := range schemes {
			for j, sched := range []gpu.SchedulerKind{gpu.GTO, gpu.LRR, gpu.OLD, gpu.TwoLevel} {
				for _, noSkip := range []bool{false, true} {
					cfg := gpu.GTX480()
					cfg.NumSMs = 4
					cfg.Scheduler = sched
					frac := float64(1+(i+j)%3) / 4
					t.Run(fmt.Sprintf("%s/%s/%s/noSkip=%v", b.Name, schemes[k].Scheme.FlagName(), sched, noSkip), func(t *testing.T) {
						t.Parallel()
						resumeCase(t, cfg, spec, comps[k], comps[1-k], frac, noSkip)
					})
				}
			}
		}
	}
}

// TestCopyFromRefusesMismatch checks CopyFrom's refusals: a paused
// launch is not copied onto a device with another number of SMs, nor
// under another program or grid, and the error names the kernel. A
// matching device accepts the copy and finishes with the uninterrupted
// launch's Stats and memory.
func TestCopyFromRefusesMismatch(t *testing.T) {
	b, err := bench.ByName("Histogram")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	base, err := core.Compile(spec.Prog, core.Options{Scheme: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.Compile(spec.Prog, core.FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.GTX480()
	cfg.NumSMs = 4
	ref := startRun(t, cfg, spec, base, false)
	want, err := ref.dev.Run(ref.l, nil)
	if err != nil {
		t.Fatal(err)
	}
	paused := startRun(t, cfg, spec, base, false)
	if err := paused.dev.Start(paused.l, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := paused.dev.Continue(want.Cycles / 2); err != nil {
		t.Fatal(err)
	}

	fewerSMs := cfg
	fewerSMs.NumSMs = 2
	grid := *paused.l
	grid.Grid.X--
	for _, c := range []struct {
		what string
		cfg  gpu.Config
		l    *gpu.Launch
	}{
		{"another NumSMs", fewerSMs, paused.l},
		{"another program", cfg, &gpu.Launch{Prog: other.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}},
		{"another grid", cfg, &grid},
	} {
		dst := startRun(t, c.cfg, spec, base, false)
		err := dst.dev.CopyFrom(paused.dev, c.l, nil)
		if err == nil {
			t.Fatalf("%s: copy accepted", c.what)
		}
		if !strings.Contains(err.Error(), spec.Prog.Name) {
			t.Errorf("%s: error %q does not name kernel %q", c.what, err, spec.Prog.Name)
		}
	}

	dst := startRun(t, cfg, spec, base, false)
	if err := dst.dev.CopyFrom(paused.dev, dst.l, nil); err != nil {
		t.Fatal(err)
	}
	got, err := dst.dev.Continue(math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("stats differ from the uninterrupted launch:\n got  %+v\n want %+v", *got, *want)
	}
	if !slices.Equal(dst.dev.Mem.Words(), ref.dev.Mem.Words()) {
		t.Fatal("final memory differs from the uninterrupted launch")
	}
}
