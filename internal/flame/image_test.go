package flame_test

import (
	"math"
	"slices"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// TestControllerImageRecovers checks that a controller copy holds
// everything a recovery reads. Each benchmark's launch is paused at
// eight points; there the paused controller and a copy of it
// (Controller.CopyFrom) driving a copy of the paused device
// (gpu.Device.CopyFrom) both run a full recovery (an error detected at the
// pause cycle) and finish the launch, and must end with equal memory,
// gpu.Stats and controller stats. Fault-free resumes never recover, so
// only this checks the RPT, the undo log, the checkpoint buffers and the
// pending sections of a copy. Flame with eager section verification
// pops boundaries inside extended sections, whose cleared crossings no
// other row holds. One controller takes every copy, as a campaign
// engine's trial controller does, so copies also cross schemes and
// checkpoint buffer sizes (SGEMM's and Histogram's).
func TestControllerImageRecovers(t *testing.T) {
	checkControllerCopies(t, false)
}

// TestControllerImageResumesThenRecovers is TestControllerImageRecovers
// with the recovery half a pause interval after the resume instead of
// at it. A recovery overwrites every live warp's cleared crossing and
// drops every pending section snapshot, so only in between does a copy
// that lost them go wrong: a warp verifies a crossing twice or a block
// never completes its section. The conveyors pop in between too, so a
// copy whose pop bound is later than the original's pops late.
func TestControllerImageResumesThenRecovers(t *testing.T) {
	checkControllerCopies(t, true)
}

// checkControllerCopies runs the pause, copy, recover and finish check
// of TestControllerImageRecovers; with late set, both launches run on
// for half a pause interval (an eighteenth of the launch) before they
// recover.
func checkControllerCopies(t *testing.T, late bool) {
	arch := gpu.GTX480()
	arch.NumSMs = 4
	var held [6]int
	midSection := 0
	rctl := new(flame.Controller)
	eager := core.FlameOptions()
	eager.EagerSectionVerify = true
	for _, c := range []struct {
		bench string
		opt   core.Options
	}{
		{"Histogram", core.FlameOptions()},
		{"SGEMM", core.Options{Scheme: core.SensorCheckpointing, WCDL: 20, ExtendRegions: true}},
		{"LUD", core.FlameOptions()},
		{"BFS", core.Options{Scheme: core.DupRenaming, WCDL: 20}},
		{"PF", core.Options{Scheme: core.HybridRenaming, WCDL: 20}},
		{"LUD", eager},
		{"Histogram", core.Options{Scheme: core.HybridCheckpointing, WCDL: 20}},
	} {
		b, err := bench.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec()
		comp, err := core.Compile(spec.Prog, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		l := &gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
		device := func() *gpu.Device {
			d, err := gpu.NewDevice(arch, spec.MemBytes)
			if err != nil {
				t.Fatal(err)
			}
			spec.Setup(d.Mem.Words())
			return d
		}
		full, err := device().Run(l, comp.Controller().Hooks())
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= 8; k++ {
			paused, ctl := device(), comp.Controller()
			if err := paused.Start(l, ctl.Hooks()); err != nil {
				t.Fatal(err)
			}
			if _, err := paused.Continue(full.Cycles * k / 9); err != nil {
				t.Fatal(err)
			}
			rpt, cleared, ckpt, undo, pending, queued := flame.ImageState(ctl)
			for i, n := range []int{rpt, cleared, ckpt, undo, pending, queued} {
				held[i] += min(n, 1)
			}
			midSection += flame.ClearedMidSection(ctl)

			restored := device()
			if err := restored.CopyFrom(paused, l, rctl.Hooks()); err != nil {
				t.Fatal(err)
			}
			rctl.CopyFrom(ctl)
			at := paused.Cycle()

			var want *gpu.Stats
			for i, r := range []struct {
				d   *gpu.Device
				ctl *flame.Controller
			}{{paused, ctl}, {restored, rctl}} {
				if late {
					if _, err := r.d.Continue(at + full.Cycles/18); err != nil {
						t.Fatalf("%s pause %d: %v", c.bench, k, err)
					}
				}
				r.ctl.Recover(r.d)
				st, err := r.d.Continue(math.MaxInt64)
				if err != nil {
					t.Fatalf("%s pause %d: %v", c.bench, k, err)
				}
				if i == 0 {
					want = st
					continue
				}
				if *st != *want || r.ctl.Stats != ctl.Stats || !slices.Equal(r.d.Mem.Words(), paused.Mem.Words()) {
					t.Fatalf("%s/%s pause %d at cycle %d: recovery after restore differs:\n got  %+v %+v\n want %+v %+v",
						c.bench, c.opt.Scheme.FlagName(), k, at, *st, r.ctl.Stats, *want, ctl.Stats)
				}
			}
		}
	}
	for i, what := range []string{"RPT entries", "cleared crossings", "checkpoint buffers", "undo entries", "pending sections", "queued RBQ entries"} {
		if held[i] == 0 {
			t.Errorf("no paused controller held %s: the check does not cover them", what)
		}
	}
	if midSection == 0 {
		t.Error("no paused controller held a cleared crossing inside an extended section: the check does not cover them")
	}
}
