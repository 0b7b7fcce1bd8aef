package flame_test

import (
	"fmt"
	"testing"

	"flame"
)

const vaddSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    shl r4, r3, 2
    ld.param r5, [0]
    ld.param r6, [4]
    ld.param r7, [8]
    add r8, r5, r4
    ld.global r9, [r8]
    add r10, r6, r4
    ld.global r11, [r10]
    fadd r12, r9, r11
    add r13, r7, r4
    st.global [r13], r12
    exit
`

func vaddSpec(n int) *flame.KernelSpec {
	return &flame.KernelSpec{
		Name:     "vadd",
		Prog:     flame.MustAssemble("vadd", vaddSrc),
		Grid:     flame.Dim3{X: n / 256},
		Block:    flame.Dim3{X: 256},
		Params:   []uint32{0, uint32(4 * n), uint32(8 * n)},
		MemBytes: 16 * n,
		Setup: func(mem []uint32) {
			for i := 0; i < n; i++ {
				mem[i] = uint32(i)
				mem[n+i] = uint32(i)
			}
		},
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	cfg := flame.GTX480()
	cfg.NumSMs = 2
	spec := vaddSpec(2048)
	base, err := flame.Run(cfg, spec, flame.Options{Scheme: flame.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	res, err := flame.Run(cfg, spec, flame.FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	ov := flame.OverheadOf(res, base)
	if ov > 1.2 || ov < 0.8 {
		t.Fatalf("implausible overhead %.3f", ov)
	}
	camp, err := flame.Campaign(cfg, spec, flame.FlameOptions(), 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Benchmark != "vadd" || camp.Trials != 5 {
		t.Fatalf("campaign: %s %s", camp.Benchmark, camp)
	}
	if camp.SDC != 0 || camp.DUE != 0 || camp.Hang != 0 || camp.Internal != 0 {
		t.Fatalf("campaign left faults uncovered: %s", camp)
	}
}

func TestPublicSensorModel(t *testing.T) {
	cfg := flame.GTX480()
	if got := flame.WCDLFor(cfg, 200); got != 20 {
		t.Fatalf("WCDL(200 sensors) = %d, want 20", got)
	}
	n, err := flame.SensorsFor(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if n < 190 || n > 210 {
		t.Fatalf("sensors for 20 cycles = %d", n)
	}
}

func TestPublicSchemesEnumeration(t *testing.T) {
	ss := flame.Schemes()
	if len(ss) != 9 || ss[0] != flame.Baseline {
		t.Fatalf("schemes = %v", ss)
	}
}

func ExampleCompile() {
	prog := flame.MustAssemble("tiny", `
    mov r0, %tid.x
    shl r1, r0, 2
    ld.param r2, [0]
    add r3, r2, r1
    ld.global r4, [r3]
    add r5, r4, 1
    st.global [r3], r5
    exit
`)
	comp, err := flame.Compile(prog, flame.FlameOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println("boundaries:", comp.Prog.BoundaryCount())
	// Output: boundaries: 1
}
