package flame

import (
	"fmt"
	"testing"

	"flame/internal/checkpoint"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/regions"
	"flame/internal/rename"
)

// saxpyLoopSrc: y[i] = a*x[i] + y[i] over an 8-iteration strided loop per
// thread; it forms in-loop region boundaries (the store overwrites the
// loaded y element).
const saxpyLoopSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0     // global tid
    mov r4, 0              // k
    ld.param r5, [0]       // &x
    ld.param r6, [4]       // &y
    ld.param r7, [8]       // n stride total
LOOP:
    mov r8, %nctaid.x
    mul r9, r2, r8         // total threads
    mad r10, r4, r9, r3    // index = k*total + tid
    shl r11, r10, 2
    add r12, r5, r11
    ld.global r13, [r12]   // x[i]
    add r14, r6, r11
    ld.global r15, [r14]   // y[i]
    fmul r16, r13, 2.0f
    fadd r17, r16, r15
    st.global [r14], r17   // y[i] = 2x[i]+y[i]
    add r4, r4, 1
    setp.lt p0, r4, 8
@p0 bra LOOP
    exit
`

// reductionSrc: block-wide shared-memory reduction with barriers — a
// Section III-E qualifying pattern when the optimization is on.
const reductionSrc = `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    mov r2, %ctaid.x
    mov r3, %ntid.x
    mad r4, r2, r3, r0
    shl r5, r4, 2
    ld.param r6, [0]       // &in
    add r7, r6, r5
    ld.global r8, [r7]
    st.shared [r1], r8     // init shared
    bar.sync
    mov r9, 32
RED:
    setp.lt p0, r0, r9
@!p0 bra SKIP
    shl r10, r9, 2
    add r11, r1, r10
    ld.shared r12, [r11]
    ld.shared r13, [r1]
    add r14, r12, r13
    st.shared [r1], r14
SKIP:
    bar.sync
    shr r9, r9, 1
    setp.gt p1, r9, 0
@p1 bra RED
    setp.eq p2, r0, 0
@!p2 bra DONE
    ld.shared r15, [r1]
    ld.param r16, [4]      // &out
    shl r17, r2, 2
    add r18, r16, r17
    st.global [r18], r15
DONE:
    exit
`

const histSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    and r4, r3, 15
    shl r5, r4, 2
    ld.param r6, [0]
    add r7, r6, r5
    mov r8, 1
    atom.global.add r9, [r7], r8
    exit
`

type scheme int

const (
	schemeRename scheme = iota
	schemeCkpt
)

// compile runs the Flame compiler pipeline on a kernel source.
func compile(t *testing.T, src string, s scheme, extend bool) (*isa.Program, *regions.Result, map[isa.Reg]int32) {
	t.Helper()
	p := isa.MustParse("k", src)
	res, err := regions.Form(p, regions.Options{ExtendAcrossBarriers: extend})
	if err != nil {
		t.Fatal(err)
	}
	var slots map[isa.Reg]int32
	switch s {
	case schemeRename:
		if _, err := rename.Apply(p, nil); err != nil {
			t.Fatal(err)
		}
		if err := regions.VerifyIdempotence(p, res.Sections, false); err != nil {
			t.Fatal(err)
		}
	case schemeCkpt:
		ck, err := checkpoint.Apply(p)
		if err != nil {
			t.Fatal(err)
		}
		slots = ck.Slots
	}
	return p, res, slots
}

func testDevice(t *testing.T) *gpu.Device {
	t.Helper()
	cfg := gpu.GTX480()
	cfg.NumSMs = 2
	d, err := gpu.NewDevice(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func setupSaxpy(d *gpu.Device, n int) {
	for i := 0; i < n; i++ {
		d.Mem.Words()[i] = isa.F32Bits(float32(i))       // x
		d.Mem.Words()[n+i] = isa.F32Bits(float32(3 * i)) // y
	}
}

func checkSaxpy(t *testing.T, d *gpu.Device, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		want := float32(2*i + 3*i)
		if got := isa.F32FromBits(d.Mem.Words()[n+i]); got != want {
			t.Fatalf("%s: y[%d] = %v, want %v", label, i, got, want)
		}
	}
}

func saxpyLaunch(p *isa.Program, n int) *gpu.Launch {
	return &gpu.Launch{
		Prog:   p,
		Grid:   isa.Dim3{X: 2},
		Block:  isa.Dim3{X: n / 2 / 8},
		Params: []uint32{0, uint32(4 * n), uint32(n)},
	}
}

func TestErrorFreeRunWithRBQ(t *testing.T) {
	const n = 256 // 2 blocks * 16 threads * 8 iters
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	if p.BoundaryCount() == 0 {
		t.Fatal("expected region boundaries")
	}
	d := testDevice(t)
	setupSaxpy(d, n)
	c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
	st, err := d.Run(saxpyLaunch(p, n), c.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	checkSaxpy(t, d, n, "flame")
	if c.Stats.Enqueues == 0 || c.Stats.Pops == 0 {
		t.Fatalf("RBQ unused: %+v", c.Stats)
	}
	if st.RBQWaitCycles == 0 {
		t.Fatal("no RBQ wait cycles recorded")
	}

	// Baseline for comparison: the un-instrumented kernel.
	base := isa.MustParse("base", saxpyLoopSrc)
	d2 := testDevice(t)
	setupSaxpy(d2, n)
	bst, err := d2.Run(saxpyLaunch(base, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < bst.Cycles {
		t.Fatalf("flame %d cycles < baseline %d", st.Cycles, bst.Cycles)
	}
	over := float64(st.Cycles-bst.Cycles) / float64(bst.Cycles)
	t.Logf("flame overhead: %.2f%% (%d vs %d cycles)", over*100, st.Cycles, bst.Cycles)
}

func TestInjectionRecoveryRenaming(t *testing.T) {
	const n = 256
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	for seed := int64(1); seed <= 8; seed++ {
		for _, arm := range []int64{10, 200, 800, 2000} {
			d := testDevice(t)
			setupSaxpy(d, n)
			c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
			c.Inj = NewInjector(NewSites(p), arm, 20, seed)
			_, err := d.Run(saxpyLaunch(p, n), c.Hooks())
			if err != nil {
				t.Fatalf("seed %d arm %d: %v", seed, arm, err)
			}
			if c.Inj.Injected && !c.Inj.Detected {
				t.Fatalf("seed %d arm %d: injected but never detected", seed, arm)
			}
			if c.Inj.Injected && c.Stats.Recoveries != 1 {
				t.Fatalf("seed %d arm %d: recoveries = %d", seed, arm, c.Stats.Recoveries)
			}
			checkSaxpy(t, d, n, fmt.Sprintf("seed %d arm %d (%s)", seed, arm, c.Inj.Description))
		}
	}
}

func TestInjectionRecoveryCheckpointing(t *testing.T) {
	const n = 256
	p, res, slots := compile(t, saxpyLoopSrc, schemeCkpt, false)
	for seed := int64(1); seed <= 8; seed++ {
		d := testDevice(t)
		setupSaxpy(d, n)
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections, CkptSlots: slots})
		c.Inj = NewInjector(NewSites(p), 500, 20, seed)
		_, err := d.Run(saxpyLaunch(p, n), c.Hooks())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSaxpy(t, d, n, fmt.Sprintf("ckpt seed %d (%s)", seed, c.Inj.Description))
	}
}

func TestInjectionRecoveryReductionWithSections(t *testing.T) {
	for _, extend := range []bool{false, true} {
		p, res, _ := compile(t, reductionSrc, schemeRename, extend)
		if extend && len(res.Sections) == 0 {
			t.Fatal("expected an extended section in the reduction kernel")
		}
		for seed := int64(1); seed <= 6; seed++ {
			d := testDevice(t)
			for i := 0; i < 128; i++ {
				d.Mem.Words()[i] = 1
			}
			c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
			c.Inj = NewInjector(NewSites(p), 100, 20, seed)
			l := &gpu.Launch{
				Prog:   p,
				Grid:   isa.Dim3{X: 2},
				Block:  isa.Dim3{X: 64},
				Params: []uint32{0, 512},
			}
			if _, err := d.Run(l, c.Hooks()); err != nil {
				t.Fatalf("extend=%v seed %d: %v", extend, seed, err)
			}
			for b := 0; b < 2; b++ {
				if got := d.Mem.Words()[128+b]; got != 64 {
					t.Fatalf("extend=%v seed %d: block %d sum = %d, want 64 (%s)",
						extend, seed, b, got, c.Inj.Description)
				}
			}
		}
	}
}

func TestInjectionRecoveryAtomicsUndo(t *testing.T) {
	p, res, _ := compile(t, histSrc, schemeRename, false)
	for seed := int64(1); seed <= 8; seed++ {
		d := testDevice(t)
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
		c.Inj = NewInjector(NewSites(p), 30, 20, seed)
		l := &gpu.Launch{
			Prog:   p,
			Grid:   isa.Dim3{X: 2},
			Block:  isa.Dim3{X: 64},
			Params: []uint32{0},
		}
		if _, err := d.Run(l, c.Hooks()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for b := 0; b < 16; b++ {
			if got := d.Mem.Words()[b]; got != 8 {
				t.Fatalf("seed %d: bin[%d] = %d, want 8 (%s, undone=%d)",
					seed, b, got, c.Inj.Description, c.Stats.UndoneAtomics)
			}
		}
	}
}

func TestRBQConveyorTiming(t *testing.T) {
	q := &RBQ{Depth: 20}
	const w1, w2 = 3, 7
	q.Push(w1, Snapshot{PC: 1}, 100)
	q.Push(w2, Snapshot{PC: 2}, 100) // same cycle: pops must serialize
	if _, ok := q.Pop(119); ok {
		t.Fatal("popped before WCDL elapsed")
	}
	e, ok := q.Pop(120)
	if !ok || e.warp != w1 {
		t.Fatal("first pop wrong")
	}
	if _, ok := q.Pop(120); ok {
		t.Fatal("two pops in one cycle")
	}
	e, ok = q.Pop(121)
	if !ok || e.warp != w2 {
		t.Fatal("second pop wrong")
	}
	q.Push(w1, Snapshot{}, 200)
	if got := q.Flush(); got != 1 {
		t.Fatalf("flush = %d", got)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after flush")
	}
}

func TestRBQHardwareCost(t *testing.T) {
	// Section VI-A2: 32 warps/scheduler -> 5+1 = 6 bits/entry; a 20-deep
	// RBQ is 120 bits.
	if got := BitsPerEntry(32); got != 6 {
		t.Fatalf("bits = %d, want 6", got)
	}
	if got := 20 * BitsPerEntry(32); got != 120 {
		t.Fatalf("RBQ bits = %d, want 120", got)
	}
}

func TestRPTAdvancesOnVerification(t *testing.T) {
	// One tiny kernel, WCDL small; after the run every warp's state was
	// cleaned up (RPT entries removed at retire).
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	d := testDevice(t)
	setupSaxpy(d, 256)
	c := NewController(Mode{WCDL: 5, UseRBQ: true, Sections: res.Sections})
	if _, err := d.Run(saxpyLaunch(p, 256), c.Hooks()); err != nil {
		t.Fatal(err)
	}
	if rpt, cleared, ckpt, _, pending, _ := ImageState(c); rpt+cleared+ckpt+pending != 0 {
		t.Fatalf("leaked warp state: rpt=%d cleared=%d ckpt=%d pending=%d", rpt, cleared, ckpt, pending)
	}
	if c.Stats.MaxRBQ == 0 {
		t.Fatal("RBQ occupancy never recorded")
	}
}

func TestImmediateModeNoSuspension(t *testing.T) {
	// Duplication/hybrid schemes: RPT advances at boundaries with no
	// descheduling.
	const n = 256
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	d := testDevice(t)
	setupSaxpy(d, n)
	c := NewController(Mode{WCDL: 20, UseRBQ: false, Sections: res.Sections})
	st, err := d.Run(saxpyLaunch(p, n), c.Hooks())
	if err != nil {
		t.Fatal(err)
	}
	checkSaxpy(t, d, n, "immediate")
	if c.Stats.Enqueues != 0 {
		t.Fatal("immediate mode must not use the RBQ")
	}
	if st.RBQWaitCycles != 0 {
		t.Fatal("immediate mode must not suspend warps")
	}
	// Injection with immediate detection recovers too.
	d2 := testDevice(t)
	setupSaxpy(d2, n)
	c2 := NewController(Mode{WCDL: 20, UseRBQ: false, Sections: res.Sections})
	c2.Inj = NewInjector(NewSites(p), 300, 0, 7)
	if _, err := d2.Run(saxpyLaunch(p, n), c2.Hooks()); err != nil {
		t.Fatal(err)
	}
	checkSaxpy(t, d2, n, "immediate-inject")
}
