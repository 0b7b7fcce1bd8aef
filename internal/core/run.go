package core

import (
	"errors"
	"fmt"

	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// ErrValidation is wrapped by run errors caused by the spec's output
// validation rejecting the final memory state (as opposed to the
// simulator failing outright); callers match it with errors.Is.
var ErrValidation = errors.New("output validation failed")

// Step is one additional kernel launch of a multi-kernel application,
// executed after the main kernel on the same device (global memory
// persists between launches).
type Step struct {
	Prog   *isa.Program
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
}

// KernelSpec is a self-contained runnable workload: program, launch
// geometry, input setup and output validation against golden results.
// Applications with several kernels list the follow-on launches in
// Steps; Validate checks the memory state after the last one.
type KernelSpec struct {
	Name   string
	Prog   *isa.Program
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
	// Steps are additional launches run after the main kernel.
	Steps []Step
	// MemBytes sizes device global memory for this workload.
	MemBytes int
	// Setup initializes global memory before the launch.
	Setup func(mem []uint32)
	// Validate checks global memory after the launch; nil return means
	// the output is correct.
	Validate func(mem []uint32) error
}

// Result is one simulated run of a compiled kernel.
type Result struct {
	Compiled *Compiled
	Stats    gpu.Stats
	Flame    flame.Stats
}

// RunOpts tunes a single simulation beyond what the compiled scheme
// dictates. The zero value reproduces RunCompiled's behaviour.
type RunOpts struct {
	// MaxCycles, when positive, bounds each launch of the run (the
	// campaign hang watchdog). Zero keeps the device-wide default.
	MaxCycles int64
	// Hooks are extra observer hooks (telemetry collectors, tracers,
	// samplers) combined after the scheme's own hooks on every launch of
	// the run, main kernel and Steps alike. Combining after the scheme
	// matters for cycle-exact observation: a telemetry OnCycle then sees
	// RBQ pops the controller performed in the same cycle.
	Hooks *gpu.Hooks
	// Stop, when non-nil, is polled periodically by every launch of the
	// run; returning true aborts with gpu.ErrWallClock (the wall-clock
	// trial watchdog).
	Stop func() bool
}

// Run compiles the spec's kernels for the scheme and simulates them on a
// fresh device of the given configuration, validating the output.
func Run(cfg gpu.Config, spec *KernelSpec, opt Options) (*Result, error) {
	comp, err := Compile(spec.Prog, opt)
	if err != nil {
		return nil, err
	}
	return RunCompiled(cfg, spec, comp, nil)
}

// RunCompiled simulates an already-compiled application, optionally with
// a fault injector attached; see RunCompiledOpts.
func RunCompiled(cfg gpu.Config, spec *KernelSpec, comp *Compiled, inj *flame.Injector) (*Result, error) {
	return RunCompiledOpts(cfg, spec, comp, inj, RunOpts{})
}

// RunCompiledOpts simulates an already-compiled application, optionally
// with a fault injector attached. comp is the compilation of the main
// kernel; follow-on Steps are compiled with the same options. The
// injector observes the main kernel's launch; under a detecting scheme
// the controller drives its detection, while on an unprotected
// (Baseline) compilation the strikes land with nothing watching for
// them.
func RunCompiledOpts(cfg gpu.Config, spec *KernelSpec, comp *Compiled, inj *flame.Injector, ro RunOpts) (*Result, error) {
	steps, err := compileSteps(spec, comp.Opt)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		return nil, err
	}
	if spec.Setup != nil {
		spec.Setup(dev.Mem.Words())
	}
	res := &Result{Compiled: comp}
	err = launchOne(dev, spec, comp, spec.Grid, spec.Block, spec.Params, inj, &ro, res)
	if err == nil {
		err = runSteps(dev, spec, steps, &ro, res)
	}
	if err == nil {
		err = validate(spec, comp, dev.Mem.Words())
	}
	return res, err
}

// compileSteps compiles the spec's follow-on Steps with the main
// kernel's options, in spec order.
func compileSteps(spec *KernelSpec, opt Options) ([]*Compiled, error) {
	steps := make([]*Compiled, len(spec.Steps))
	for i, step := range spec.Steps {
		var err error
		if steps[i], err = Compile(step.Prog, opt); err != nil {
			return nil, fmt.Errorf("%s step %d: %w", spec.Name, i+1, err)
		}
	}
	return steps, nil
}

// runSteps runs the compiled follow-on Steps after the main launch. The
// injector never observes them.
func runSteps(dev *gpu.Device, spec *KernelSpec, steps []*Compiled, ro *RunOpts, res *Result) error {
	for i, step := range spec.Steps {
		if err := launchOne(dev, spec, steps[i], step.Grid, step.Block, step.Params, nil, ro, res); err != nil {
			return err
		}
	}
	return nil
}

// validate applies the spec's output check to the final memory.
func validate(spec *KernelSpec, comp *Compiled, mem []uint32) error {
	if spec.Validate == nil {
		return nil
	}
	if verr := spec.Validate(mem); verr != nil {
		return fmt.Errorf("%s/%s: %w: %v", spec.Name, comp.Opt.Scheme, ErrValidation, verr)
	}
	return nil
}

// Overhead returns the normalized execution time of a scheme run against
// a baseline run (1.0 = no overhead).
func Overhead(scheme, baseline *Result) float64 {
	if baseline.Stats.Cycles == 0 {
		return 0
	}
	return float64(scheme.Stats.Cycles) / float64(baseline.Stats.Cycles)
}
