package flame

import (
	"testing"

	"flame/internal/checkpoint"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/regions"
	"flame/internal/rename"
)

// Protocol-level tests of the RPT/RBQ semantics from the paper's
// Figure 9 and of the collective-section machinery.

// twoRegionSrc is a two-region kernel (boundary in the middle), the
// shape of the paper's Figure 9 examples.
const twoRegionSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    shl r4, r3, 2
    ld.param r5, [0]
    add r6, r5, r4
    ld.global r7, [r6]
    --
    add r8, r7, 100
    st.global [r6], r8
    exit
`

func figure9Device(t *testing.T) *gpu.Device {
	t.Helper()
	cfg := gpu.GTX480()
	cfg.NumSMs = 1
	cfg.SchedulersPerSM = 1
	d, err := gpu.NewDevice(cfg, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFigure9AErrorFree mirrors Example A: warps hit the boundary, wait
// exactly WCDL in the conveyor, then the RPT advances to the next
// region's start.
func TestFigure9AErrorFree(t *testing.T) {
	d := figure9Device(t)
	for i := 0; i < 64; i++ {
		d.Mem.Words()[i] = uint32(i)
	}
	c := NewController(Mode{WCDL: 20, UseRBQ: true})
	prog := isa.MustParse("f9a", twoRegionSrc)

	// Probe RPT transitions every cycle.
	sawMidRegionRPT := false
	hooks := c.Hooks()
	inner := hooks.OnCycle
	hooks.OnCycle = func(dev *gpu.Device) {
		inner(dev)
		for _, s := range c.warps {
			if s.rpt.PC == 8 { // the boundary instruction (start of region 2)
				sawMidRegionRPT = true
			}
		}
	}
	l := &gpu.Launch{Prog: prog, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 32}, Params: []uint32{0}}
	if _, err := d.Run(l, hooks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := d.Mem.Words()[i]; got != uint32(i+100) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	if !sawMidRegionRPT {
		t.Fatal("RPT never advanced to region 2's start (verification did not complete)")
	}
	if c.Stats.Enqueues < 4 { // 2 warps x (boundary + exit)
		t.Fatalf("enqueues = %d, want >= 4", c.Stats.Enqueues)
	}
	// Each verification takes at least WCDL: pops cannot outpace enqueues.
	if c.Stats.Pops != c.Stats.Enqueues {
		t.Fatalf("pops %d != enqueues %d in an error-free run", c.Stats.Pops, c.Stats.Enqueues)
	}
}

// TestFigure9BRecovery mirrors Example B: an error detected while warps
// are at different verification stages resets every unverified warp to
// its recovery PC; verified regions are never re-entered incorrectly and
// the final output is still exact.
func TestFigure9BRecovery(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		d := figure9Device(t)
		for i := 0; i < 96; i++ {
			d.Mem.Words()[i] = uint32(i)
		}
		c := NewController(Mode{WCDL: 20, UseRBQ: true})
		prog := isa.MustParse("f9b", twoRegionSrc)
		c.Inj = NewInjector(NewSites(prog), 15+seed*11, 20, seed)
		l := &gpu.Launch{Prog: prog, Grid: isa.Dim3{X: 3}, Block: isa.Dim3{X: 32}, Params: []uint32{0}}
		if _, err := d.Run(l, c.Hooks()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < 96; i++ {
			if got := d.Mem.Words()[i]; got != uint32(i+100) {
				t.Fatalf("seed %d: out[%d] = %d (%s)", seed, i, got, c.Inj.Description)
			}
		}
		if c.Inj.Injected && c.Stats.Recoveries != 1 {
			t.Fatalf("seed %d: recoveries = %d", seed, c.Stats.Recoveries)
		}
		if c.Inj.Injected && c.Inj.DetectedAt-c.Inj.InjectedAt > 20 {
			t.Fatalf("seed %d: detection exceeded WCDL: %d cycles",
				seed, c.Inj.DetectedAt-c.Inj.InjectedAt)
		}
	}
}

// sectionEarlyExitSrc has an extended section and a divergent early exit:
// half the warps never enter the section; the collective verification
// must still complete for the rest.
const sectionEarlyExitSrc = `
.shared 512
    mov r0, %tid.x
    mov r1, %warpid
    setp.geu p0, r1, 2
@p0 exit
    shl r2, r0, 2
    mov r3, 7
    st.shared [r2], r3
    bar.sync
    ld.shared r4, [r2]
    add r5, r4, r1
    st.shared [r2], r5
    mov r6, %ctaid.x
    mov r7, %ntid.x
    mad r8, r6, r7, r0
    shl r9, r8, 2
    ld.param r10, [0]
    add r11, r10, r9
    st.global [r11], r5
    exit
`

func TestCollectiveSectionWithEarlyExitWarps(t *testing.T) {
	// Warps that exit before the barrier must not deadlock it: the
	// barrier releases when all *live* warps arrive, and the collective
	// section verification must likewise complete over surviving warps.
	p := isa.MustParse("see", sectionEarlyExitSrc)
	comp := compileFor(t, p)
	if len(comp.sections) == 0 {
		t.Skip("no section formed; pattern changed")
	}
	d := figure9Device(t)
	c := NewController(Mode{WCDL: 10, UseRBQ: true, Sections: comp.sections})
	l := &gpu.Launch{Prog: comp.prog, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 128}, Params: []uint32{0}}
	if _, err := d.Run(l, c.Hooks()); err != nil {
		t.Fatal(err)
	}
	// Lanes of warps 0 and 1 wrote 7 + warpid.
	for b := 0; b < 2; b++ {
		for tid := 0; tid < 64; tid++ {
			want := uint32(7 + tid/32)
			if got := d.Mem.Words()[b*128+tid]; got != want {
				t.Fatalf("block %d tid %d = %d, want %d", b, tid, got, want)
			}
		}
	}
}

// TestEagerAblationSameResults checks the ablation knob changes timing
// only: outputs and recovery behaviour are identical.
func TestEagerAblationSameResults(t *testing.T) {
	p := isa.MustParse("wt", reductionSrc)
	comp := compileFor(t, p)
	if len(comp.sections) == 0 {
		t.Fatal("expected a section")
	}
	run := func(eager bool, seed int64) []uint32 {
		d := figure9Device(t)
		for i := 0; i < 128; i++ {
			d.Mem.Words()[i] = 1
		}
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: comp.sections, EagerSectionVerify: eager})
		if seed > 0 {
			c.Inj = NewInjector(NewSites(comp.prog), 80, 20, seed)
		}
		l := &gpu.Launch{Prog: comp.prog, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 64}, Params: []uint32{0, 512}}
		if _, err := d.Run(l, c.Hooks()); err != nil {
			t.Fatal(err)
		}
		out := make([]uint32, 2)
		copy(out, d.Mem.Words()[128:130])
		return out
	}
	for _, seed := range []int64{0, 3, 9} {
		a, b := run(false, seed), run(true, seed)
		for i := range a {
			if a[i] != 64 || b[i] != 64 {
				t.Fatalf("seed %d: outputs differ or wrong: skip=%v eager=%v", seed, a, b)
			}
		}
	}
}

// compiledForTest is a tiny local pipeline for protocol tests.
type compiledForTest struct {
	prog     *isa.Program
	sections []regions.Section
}

func compileFor(t *testing.T, p *isa.Program) compiledForTest {
	t.Helper()
	res, err := regions.Form(p, regions.Options{ExtendAcrossBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rename.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	return compiledForTest{prog: p, sections: res.Sections}
}

// ckptOrderSrc is crafted so that restoring a PENDING (uncommitted)
// checkpoint instead of the committed one produces a wrong result:
// region 2 reads its input r3 before overwriting it, and the overwrite
// is also checkpointed (r3 is live-out).
const ckptOrderSrc = `
    mov r0, %tid.x
    mov r9, %ctaid.x
    mov r10, %ntid.x
    mad r0, r9, r10, r0
    shl r8, r0, 2
    ld.param r1, [0]
    add r1, r1, r8
    ld.global r2, [r1]      // v0
    mov r3, r2              // r3 = v0 (checkpointed: live-out)
    add r4, r3, 1
    st.global [r1+512], r4  // region boundary forms before a later store
    add r5, r3, 2           // reads region input r3
    st.global [r1+1024], r5
    mov r3, 77              // overwrites the input (WAR circumvented by ckpt)
    add r6, r3, r5
    st.global [r1+1536], r6
    exit
`

// TestExhaustiveInjectionSweep injects one fault at every 3rd cycle of
// the fault-free execution, under both recovery schemes, and requires a
// bit-exact output every time. This exhaustively covers the
// corruption/detection/boundary-timing interleavings, including the
// checkpoint pending-vs-committed window.
func TestExhaustiveInjectionSweep(t *testing.T) {
	for _, useCkpt := range []bool{false, true} {
		p := isa.MustParse("sweep", ckptOrderSrc)
		res, err := regions.Form(p, regions.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var slots map[isa.Reg]int32
		if useCkpt {
			ck, err := checkpoint.Apply(p)
			if err != nil {
				t.Fatal(err)
			}
			slots = ck.Slots
		} else {
			if _, err := rename.Apply(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		setup := func(d *gpu.Device) {
			for i := 0; i < 64; i++ {
				d.Mem.Words()[i] = uint32(100 + i)
			}
		}
		check := func(d *gpu.Device, arm int64) {
			t.Helper()
			for i := 0; i < 64; i++ {
				v0 := uint32(100 + i)
				if got := d.Mem.Words()[128+i]; got != v0+1 {
					t.Fatalf("ckpt=%v arm=%d: out1[%d]=%d want %d", useCkpt, arm, i, got, v0+1)
				}
				if got := d.Mem.Words()[256+i]; got != v0+2 {
					t.Fatalf("ckpt=%v arm=%d: out2[%d]=%d want %d", useCkpt, arm, i, got, v0+2)
				}
				if got := d.Mem.Words()[384+i]; got != 77+v0+2 {
					t.Fatalf("ckpt=%v arm=%d: out3[%d]=%d want %d", useCkpt, arm, i, got, 77+v0+2)
				}
			}
		}
		launch := func() *gpu.Launch {
			return &gpu.Launch{Prog: p, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 32}, Params: []uint32{0}}
		}
		// Fault-free window.
		d := figure9Device(t)
		setup(d)
		c := NewController(Mode{WCDL: 12, UseRBQ: true, Sections: res.Sections, CkptSlots: slots})
		st, err := d.Run(launch(), c.Hooks())
		if err != nil {
			t.Fatal(err)
		}
		check(d, -1)
		for arm := int64(0); arm < st.Cycles; arm += 3 {
			d := figure9Device(t)
			setup(d)
			c := NewController(Mode{WCDL: 12, UseRBQ: true, Sections: res.Sections, CkptSlots: slots})
			c.Inj = NewInjector(NewSites(p), arm, 12, arm+1)
			if _, err := d.Run(launch(), c.Hooks()); err != nil {
				t.Fatalf("ckpt=%v arm=%d: %v", useCkpt, arm, err)
			}
			check(d, arm)
		}
	}
}
