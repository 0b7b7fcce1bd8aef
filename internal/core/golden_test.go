package core

import (
	"reflect"
	"sync"
	"testing"
)

// TestGoldenSharedAcrossEnginesImmutable pins the sharing contract
// documented on Golden: one Golden is read concurrently by every worker
// engine of a campaign, so nothing in the trial path may write to it.
// Several engines hammer the same Golden in parallel (the race detector
// sees any write to its images under `go test -race`), and the
// fingerprint over every shared buffer must be unchanged afterwards.
func TestGoldenSharedAcrossEnginesImmutable(t *testing.T) {
	cfg := testCfg()
	for _, spec := range []*KernelSpec{saxpySpec(), stepSpec()} {
		g, err := GoldenRun(cfg, spec, FlameOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := g.Fingerprint()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng := NewEngine(cfg)
				if w%2 == 1 {
					eng.SetNoCOW(true)
				}
				for i := int64(0); i < 12; i++ {
					ts := TrialSpec{
						Arms:      []int64{(i * g.Window) / 12},
						Seed:      i + int64(w)*1000,
						MaxCycles: g.HangBudget(0),
					}
					eng.RunTrial(spec, g, ts)
				}
			}(w)
		}
		wg.Wait()
		if after := g.Fingerprint(); after != before {
			t.Fatalf("%s: golden mutated by concurrent trials: fingerprint %#x -> %#x",
				spec.Name, before, after)
		}
	}
}

// TestGoldenRunSetsUpOnce pins the golden run's single pass over a
// multi-step workload: host setup runs once (the run starts from the
// InitMem image), the Steps run from the precompiled StepComps, and
// the result matches a plain RunCompiled of the same compilation.
// MainCycles is the main launch's own cycle count, not the window.
func TestGoldenRunSetsUpOnce(t *testing.T) {
	cfg := testCfg()
	spec := stepSpec()
	spec.Steps = append(spec.Steps, spec.Steps[0]) // double, add one, add one
	setup := spec.Setup
	calls := 0
	spec.Setup = func(mem []uint32) {
		calls++
		setup(mem)
	}
	spec.Validate = func(mem []uint32) error {
		for i := 0; i < 4*64; i++ {
			if mem[i] != uint32(2*i+2) {
				return errAt(i, mem[i])
			}
		}
		return nil
	}
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("golden run called Setup %d times, want 1", calls)
	}
	if len(g.StepComps) != 2 {
		t.Fatalf("%d step compilations, want 2", len(g.StepComps))
	}

	ref, err := RunCompiled(cfg, spec, g.Comp, nil) // validates its final memory
	if err != nil {
		t.Fatal(err)
	}
	// The whole final image is known: the kernel writes 2i+2 to word i
	// of its 4*64 words and nothing else.
	want := make([]uint32, len(g.InitMem))
	for i := 0; i < 4*64; i++ {
		want[i] = uint32(2*i + 2)
	}
	if g.Window != ref.Stats.Cycles || !reflect.DeepEqual(g.Mem, want) {
		t.Fatalf("golden window %d differs from a plain run's %d, or its memory is wrong", g.Window, ref.Stats.Cycles)
	}
	mainOnly := *spec
	mainOnly.Steps, mainOnly.Validate = nil, nil
	main, err := RunCompiled(cfg, &mainOnly, g.Comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.MainCycles != main.Stats.Cycles || g.MainCycles >= g.Window {
		t.Fatalf("MainCycles %d, main launch alone %d, window %d", g.MainCycles, main.Stats.Cycles, g.Window)
	}
}
