package flame_test

import (
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// TestCkptRunAllocs bounds the allocations of one Sensor+Checkpointing
// run of SGEMM (13 checkpointed registers) on a 4-SM device. Per-warp
// checkpoint maps keyed by (lane, register) made 21797 allocations
// here; the recycled per-warp buffers make 9380.
func TestCkptRunAllocs(t *testing.T) {
	arch := gpu.GTX480()
	arch.NumSMs = 4
	b, err := bench.ByName("SGEMM")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	comp, err := core.Compile(spec.Prog, core.Options{Scheme: core.SensorCheckpointing, WCDL: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.CkptSlots) == 0 {
		t.Fatal("SGEMM has no checkpointed registers; the bound measures nothing")
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := core.RunCompiled(arch, spec, comp, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 11000 {
		t.Fatalf("%.0f allocations per Sensor+Checkpointing run, bound 11000", allocs)
	}
}

// TestCopyFromAllocs checks that a controller copy reuses its storage:
// copying a paused Sensor+Checkpointing SGEMM controller (RPT entries,
// checkpoint buffers, queued RBQ entries) into a controller that already
// held a copy allocates nothing, as a campaign engine's trial controller
// does once per trial.
func TestCopyFromAllocs(t *testing.T) {
	arch := gpu.GTX480()
	arch.NumSMs = 4
	b, err := bench.ByName("SGEMM")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	comp, err := core.Compile(spec.Prog, core.Options{Scheme: core.SensorCheckpointing, WCDL: 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpu.NewDevice(arch, spec.MemBytes)
	if err != nil {
		t.Fatal(err)
	}
	spec.Setup(d.Mem.Words())
	src := comp.Controller()
	if err := d.Start(&gpu.Launch{Prog: comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}, src.Hooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(2000); err != nil {
		t.Fatal(err)
	}
	if rpt, _, ckpt, _, _, queued := flame.ImageState(src); rpt == 0 || ckpt == 0 || queued == 0 {
		t.Fatalf("paused controller holds %d RPT entries, %d checkpoint buffers, %d queued RBQ entries: the copy measures too little", rpt, ckpt, queued)
	}
	var dst flame.Controller
	dst.CopyFrom(src)
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); allocs != 0 {
		t.Fatalf("%.0f allocations per copy into a controller that held one", allocs)
	}
}
