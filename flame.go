// Package flame is the public API of Flame-Go, a from-scratch Go
// reproduction of "Featherweight Soft Error Resilience for GPUs"
// (Zhang & Jung, MICRO 2022).
//
// Flame protects GPU pipelines against radiation-induced soft errors by
// combining acoustic-sensor-based detection with idempotent-processing
// recovery, hiding the sensors' worst-case detection latency (WCDL)
// behind warp-level parallelism via WCDL-aware warp scheduling.
//
// The package re-exports the building blocks:
//
//   - Assemble / MustAssemble: parse a kernel written in the PTX-like
//     virtual ISA.
//   - Compile: run a resilience scheme's compiler pipeline (idempotent
//     region formation, register renaming or checkpointing, SwapCodes
//     duplication, tail-DMR).
//   - Run / Campaign: simulate on the cycle-level GPU model, optionally
//     under a fault-injection campaign.
//   - WCDLFor / SensorsFor: the acoustic sensor deployment model.
//
// A minimal end-to-end use:
//
//	prog := flame.MustAssemble("vadd", src)
//	spec := &flame.KernelSpec{Name: "vadd", Prog: prog, Grid: flame.Dim3{X: 64},
//	    Block: flame.Dim3{X: 256}, Params: []uint32{0, 1 << 20}, MemBytes: 1 << 22}
//	base, _ := flame.Run(flame.GTX480(), spec, flame.Options{Scheme: flame.Baseline})
//	res, _ := flame.Run(flame.GTX480(), spec, flame.FlameOptions())
//	fmt.Printf("overhead: %.2f%%\n", 100*(flame.OverheadOf(res, base)-1))
package flame

import (
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/sensor"
)

// Re-exported core types.
type (
	// Scheme identifies a resilience configuration (Flame, SwapCodes
	// duplication, tail-DMR hybrid, recovery-only, ...).
	Scheme = core.Scheme
	// Options selects the scheme, WCDL and optimizations for Compile.
	Options = core.Options
	// Compiled is a kernel compiled for a scheme.
	Compiled = core.Compiled
	// KernelSpec is a runnable workload with setup and validation.
	KernelSpec = core.KernelSpec
	// Result is one simulated run.
	Result = core.Result
	// CampaignResult is one workload's fault-injection campaign:
	// Masked / Recovered / SDC / DUE / Hang counts and the coverage
	// rate with its Wilson 95% confidence interval.
	CampaignResult = campaign.BenchReport
	// Config describes a GPU architecture.
	Config = gpu.Config
	// Program is an assembled kernel.
	Program = isa.Program
	// Dim3 is a grid/block geometry vector.
	Dim3 = isa.Dim3
)

// The evaluated schemes (Section V-B).
const (
	Baseline            = core.Baseline
	Renaming            = core.Renaming
	Checkpointing       = core.Checkpointing
	SensorRenaming      = core.SensorRenaming
	SensorCheckpointing = core.SensorCheckpointing
	DupRenaming         = core.DupRenaming
	DupCheckpointing    = core.DupCheckpointing
	HybridRenaming      = core.HybridRenaming
	HybridCheckpointing = core.HybridCheckpointing
)

// Assemble parses kernel source written in the virtual GPU ISA.
func Assemble(name, src string) (*Program, error) { return isa.Parse(name, src) }

// MustAssemble is Assemble, panicking on error (for constant sources).
func MustAssemble(name, src string) *Program { return isa.MustParse(name, src) }

// Compile runs the scheme's compiler pipeline on a clone of the program.
func Compile(p *Program, opt Options) (*Compiled, error) { return core.Compile(p, opt) }

// FlameOptions returns the paper's full Flame configuration:
// sensors + renaming + region extension at 20-cycle WCDL.
func FlameOptions() Options { return core.FlameOptions() }

// Schemes returns every evaluated scheme in figure order.
func Schemes() []Scheme { return core.Schemes() }

// Run compiles and simulates a workload under a scheme, validating its
// output.
func Run(cfg Config, spec *KernelSpec, opt Options) (*Result, error) {
	return core.Run(cfg, spec, opt)
}

// Campaign runs n data-slice fault-injection trials of the workload
// under the scheme and classifies each against the fault-free run.
// Trial t depends only on (seed, spec.Name, t). Baseline is accepted:
// it measures raw masking with no protection.
func Campaign(cfg Config, spec *KernelSpec, opt Options, n int, seed uint64) (*CampaignResult, error) {
	rep, err := campaign.Run(campaign.Config{Arch: cfg, Opt: opt, Specs: []*KernelSpec{spec}, Trials: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &rep.Benchmarks[0], nil
}

// OverheadOf returns a run's execution time normalized to a baseline run.
func OverheadOf(scheme, baseline *Result) float64 { return core.Overhead(scheme, baseline) }

// GPU architecture configurations evaluated in the paper.
func GTX480() Config  { return gpu.GTX480() }
func TITANX() Config  { return gpu.TITANX() }
func GV100() Config   { return gpu.GV100() }
func RTX2060() Config { return gpu.RTX2060() }

// ConfigByName returns a named architecture configuration
// (GTX480, TITANX, GV100, RTX2060).
func ConfigByName(name string) (Config, error) { return gpu.ConfigByName(name) }

// WCDLFor returns the worst-case detection latency achieved by deploying
// the given number of acoustic sensors on each SM of the architecture.
func WCDLFor(cfg Config, sensorsPerSM int) int {
	return sensor.Deployment{
		SensorsPerSM: sensorsPerSM,
		SMAreaMM2:    cfg.SMLogicAreaMM2,
		FreqMHz:      cfg.FreqMHz,
	}.WCDL()
}

// SensorsFor returns the minimum sensors per SM achieving the target
// WCDL on the architecture.
func SensorsFor(cfg Config, targetWCDL int) (int, error) {
	return sensor.SensorsFor(targetWCDL, cfg.SMLogicAreaMM2, cfg.FreqMHz)
}
