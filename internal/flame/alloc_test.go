package flame_test

import (
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
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
