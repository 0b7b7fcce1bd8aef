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
	hooks *gpu.Hooks
	l     *gpu.Launch
}

// startRun builds a device of cfg holding the benchmark's input and
// attaches a new controller for comp (none for a scheme without one).
func startRun(t *testing.T, cfg gpu.Config, spec *core.KernelSpec, comp *core.Compiled) *resumeRun {
	t.Helper()
	d, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		t.Fatal(err)
	}
	spec.Setup(d.Mem.Words())
	r := &resumeRun{dev: d, ctl: comp.Controller(),
		l: &gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}}
	if r.ctl != nil {
		r.hooks = r.ctl.Hooks()
	}
	return r
}

// resumeCase checks one benchmark, scheme and configuration: the main
// launch paused at a fraction of its run and copied onto another device
// that has just run a different kernel (the same benchmark under the
// other scheme) ends with the memory, dirty pages, gpu.Stats and
// controller stats of the uninterrupted launch — and so does the paused
// launch continued in place. On its way the launch pauses at several
// cycles, as a golden cursor does; each pause lands exactly on the
// cycle asked for, with the partial gpu.Stats of the same launch
// simulated without cycle skipping.
func resumeCase(t *testing.T, cfg gpu.Config, spec *core.KernelSpec, comp, other *core.Compiled, frac float64) {
	t.Helper()
	ref := startRun(t, cfg, spec, comp)
	want, err := ref.dev.Run(ref.l, ref.hooks)
	if err != nil {
		t.Fatal(err)
	}

	paused := startRun(t, cfg, spec, comp)
	if err := paused.dev.Start(paused.l, paused.hooks); err != nil {
		t.Fatal(err)
	}
	naiveCfg := cfg
	naiveCfg.NoCycleSkip = true
	naive := startRun(t, naiveCfg, spec, comp)
	if err := naive.dev.Start(naive.l, naive.hooks); err != nil {
		t.Fatal(err)
	}
	at := int64(float64(want.Cycles) * frac)
	for _, stop := range []int64{at / 3, at / 3, at/2 + 1, at} {
		got, err := paused.dev.Continue(stop)
		if err != nil {
			t.Fatal(err)
		}
		if c := paused.dev.Cycle(); c != stop {
			t.Fatalf("paused at cycle %d, asked %d of %d", c, stop, want.Cycles)
		}
		ref, err := naive.dev.Continue(stop)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *ref {
			t.Fatalf("stats paused at cycle %d differ from the launch without cycle skipping:\n got  %+v\n want %+v", stop, *got, *ref)
		}
	}
	// The other kernel leaves warps, blocks, pools, caches and
	// scheduler state behind on the device the launch is copied onto.
	resumed := startRun(t, cfg, spec, other)
	if _, err := resumed.dev.Run(resumed.l, resumed.hooks); err != nil {
		t.Fatal(err)
	}
	resumed = &resumeRun{dev: resumed.dev, ctl: comp.Controller(), l: paused.l}
	if resumed.ctl != nil {
		resumed.hooks = resumed.ctl.Hooks()
	}
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
	}{{"resumed on another device", resumed}, {"continued in place", paused}} {
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
	}
}

// TestImageResumeMatchesUninterrupted is the resume contract behind
// trials that start from the golden cursor: every benchmark at 4 SMs,
// under Baseline and under Flame with its controller copied too, under
// each scheduler with cycle skipping on and off, paused at a quarter, a
// half or three quarters of its launch. A race-detector build checks
// every eighth benchmark.
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
					cfg.NoCycleSkip = noSkip
					frac := float64(1+(i+j)%3) / 4
					t.Run(fmt.Sprintf("%s/%s/%s/noSkip=%v", b.Name, schemes[k].Scheme.FlagName(), sched, noSkip), func(t *testing.T) {
						t.Parallel()
						resumeCase(t, cfg, spec, comps[k], comps[1-k], frac)
					})
				}
			}
		}
	}
}

// TestCopyFromRefusesMismatch checks CopyFrom's refusals: a paused
// launch is not copied onto a device with another number of SMs, nor
// under another program or grid, and the error names the kernel. A
// source without cycle skipping is copied onto a skipping device, which
// then finishes with the uninterrupted launch's Stats and memory.
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
	ref := startRun(t, cfg, spec, base)
	want, err := ref.dev.Run(ref.l, nil)
	if err != nil {
		t.Fatal(err)
	}
	naiveCfg := cfg
	naiveCfg.NoCycleSkip = true
	paused := startRun(t, naiveCfg, spec, base)
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
		dst := startRun(t, c.cfg, spec, base)
		err := dst.dev.CopyFrom(paused.dev, c.l, nil)
		if err == nil {
			t.Fatalf("%s: copy accepted", c.what)
		}
		if !strings.Contains(err.Error(), spec.Prog.Name) {
			t.Errorf("%s: error %q does not name kernel %q", c.what, err, spec.Prog.Name)
		}
	}

	dst := startRun(t, cfg, spec, base)
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
