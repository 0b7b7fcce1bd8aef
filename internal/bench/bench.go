// Package bench re-implements the paper's 34 Table-I benchmark
// applications as kernels in the virtual GPU ISA, with deterministic
// input generators and golden-output validators. Each kernel reproduces
// the structural properties that matter to Flame — memory/register
// anti-dependence density, barrier patterns, atomics, divergence and
// arithmetic intensity — at sizes that simulate quickly.
package bench

import (
	"fmt"
	"sort"

	"flame/internal/core"
	"flame/internal/isa"
)

// Benchmark is one Table-I workload.
type Benchmark struct {
	// Name is the paper's abbreviation (SGEMM, LUD, ...).
	Name string
	// Suite is the originating benchmark suite.
	Suite string
	// Description summarizes the computation.
	Description string

	Src    string
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
	// Steps are additional kernel launches of multi-kernel applications,
	// run after the main kernel on the same device.
	Steps    []core.Step
	MemBytes int
	Setup    func(mem []uint32)
	Validate func(mem []uint32) error

	// ExtensionCandidate marks kernels whose barrier pattern qualifies
	// for the Section III-E region-extension optimization.
	ExtensionCandidate bool

	prog *isa.Program
}

// Prog returns the assembled kernel (parsed once, then cached). The
// first call assembles and stores the program without synchronisation,
// so it is not safe for concurrent use: callers that fan work out over
// goroutines resolve Prog (or Spec) first. Later calls only read.
func (b *Benchmark) Prog() *isa.Program {
	if b.prog == nil {
		b.prog = isa.MustParse(b.Name, b.Src)
	}
	return b.prog
}

// Spec converts the benchmark into a runnable core.KernelSpec.
func (b *Benchmark) Spec() *core.KernelSpec {
	return &core.KernelSpec{
		Name:     b.Name,
		Prog:     b.Prog(),
		Grid:     b.Grid,
		Block:    b.Block,
		Params:   b.Params,
		Steps:    b.Steps,
		MemBytes: b.MemBytes,
		Setup:    b.Setup,
		Validate: b.Validate,
	}
}

var registry []*Benchmark

func register(b *Benchmark) *Benchmark {
	registry = append(registry, b)
	return b
}

// QuickSuite is a small structurally-diverse subset for fast
// campaigns: regular streaming, blocked reuse with barriers, atomics,
// divergence, extended-section and multi-kernel workloads.
var QuickSuite = []string{
	"Triad", "SGEMM", "Histogram", "BFS",
	"LUD", "NW", "PF", "SRAD",
}

// All returns every benchmark sorted by name.
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the named benchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// ---- Shared helpers for input generation and golden math ----

// d3 builds a Dim3 tersely.
func d3(x, y, z int) isa.Dim3 { return isa.Dim3{X: x, Y: y, Z: z} }

// lcg is the deterministic input generator shared by all benchmarks.
type lcg uint32

func (r *lcg) next() uint32 {
	*r = *r*1664525 + 1013904223
	return uint32(*r)
}

// unitFloat returns a float in [1, 2) from the generator (bit trick keeps
// magnitudes tame so float comparisons stay exact).
func (r *lcg) unitFloat() float32 {
	return isa.F32FromBits(r.next()>>9 | 0x3F800000)
}

// f is shorthand for float bits.
func f(v float32) uint32 { return isa.F32Bits(v) }

// ff decodes float bits.
func ff(v uint32) float32 { return isa.F32FromBits(v) }

// alu mirrors the simulator's ALU semantics for golden computation.
func alu(op isa.Opcode, a, b, c uint32) uint32 { return isa.EvalALU(op, a, b, c) }

// fadd/fmul/fsub/fmaf mirror the simulator's float ops bit-exactly.
func fadd(a, b float32) float32 { return ff(alu(isa.OpFAdd, f(a), f(b), 0)) }
func fsub(a, b float32) float32 { return ff(alu(isa.OpFSub, f(a), f(b), 0)) }
func fmul(a, b float32) float32 { return ff(alu(isa.OpFMul, f(a), f(b), 0)) }
func fdiv(a, b float32) float32 { return ff(alu(isa.OpFDiv, f(a), f(b), 0)) }
func fmaf(a, b, c float32) float32 {
	return ff(alu(isa.OpFMA, f(a), f(b), f(c)))
}
func fsqrt(a float32) float32 { return ff(alu(isa.OpSqrt, f(a), 0, 0)) }
func fexp2(a float32) float32 { return ff(alu(isa.OpExp2, f(a), 0, 0)) }
func flog2(a float32) float32 { return ff(alu(isa.OpLog2, f(a), 0, 0)) }
func frcp(a float32) float32  { return ff(alu(isa.OpRcp, f(a), 0, 0)) }
func frsqrt(a float32) float32 {
	return ff(alu(isa.OpRsqrt, f(a), 0, 0))
}
func fmin32(a, b float32) float32 {
	return ff(alu(isa.OpFMin, f(a), f(b), 0))
}
func fmax32(a, b float32) float32 {
	return ff(alu(isa.OpFMax, f(a), f(b), 0))
}

// expectU32 checks one word of output.
func expectU32(mem []uint32, idx int, want uint32, what string) error {
	if mem[idx] != want {
		return fmt.Errorf("%s[%d] = %d (%#x), want %d (%#x)",
			what, idx, mem[idx], mem[idx], want, want)
	}
	return nil
}

// expectF32 checks one float word of output bit-exactly.
func expectF32(mem []uint32, idx int, want float32, what string) error {
	if got := ff(mem[idx]); got != want {
		return fmt.Errorf("%s[%d] = %v, want %v", what, idx, got, want)
	}
	return nil
}

// ftoi mirrors the simulator's float->int truncation.
func ftoi(v float32) uint32 { return alu(isa.OpFtoI, f(v), 0, 0) }
