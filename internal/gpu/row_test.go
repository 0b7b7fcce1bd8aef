package gpu

import (
	"math/rand"
	"testing"

	"flame/internal/isa"
)

// rowTestMasks returns the exec masks every row-kernel case runs under:
// none, full, a single lane and a random subset.
func rowTestMasks(r *rand.Rand) []uint32 {
	return []uint32{0, ^uint32(0), 1 << uint(r.Intn(isa.Lanes)), r.Uint32()}
}

// randomWord favours float and integer edge values.
func randomWord(r *rand.Rand) uint32 {
	edges := [...]uint32{0, 1, 31, 0x7fffffff, 0x80000000, 0xffffffff,
		isa.F32Bits(1), isa.F32Bits(-2.5), 0x7f800000, 0x7fc00001, 0xffc00002, 0x7f800003}
	if r.Intn(3) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return r.Uint32()
}

// randomSrc returns a register source (often the destination itself) or
// an immediate.
func randomSrc(r *rand.Rand, nregs int, dst isa.Reg) isa.Operand {
	switch r.Intn(4) {
	case 0:
		return isa.R(dst)
	case 1:
		return isa.Imm(int32(randomWord(r)))
	default:
		return isa.R(isa.Reg(r.Intn(nregs)))
	}
}

// rowTestWarp returns a detached warp whose register and predicate
// files hold random values. Its thread lanes are all 32, or a random
// subset so that lanes without a thread are exercised too.
func rowTestWarp(r *rand.Rand, nregs int) *Warp {
	lanes := ^uint32(0)
	if r.Intn(2) == 0 {
		lanes = r.Uint32()
	}
	w := NewWarp(nregs, lanes)
	for i := range w.regs {
		w.regs[i] = randomWord(r)
	}
	for p := range w.preds {
		w.preds[p] = r.Uint32()
	}
	return w
}

// laneVal is a source operand's value in one lane, read from a register
// snapshot (register-major, as Warp.regs).
func laneVal(regs []uint32, o isa.Operand, lane int) uint32 {
	if o.Kind == isa.OperReg {
		return regs[int(o.Reg)*isa.Lanes+lane]
	}
	return uint32(o.Imm)
}

// TestRowKernelsMatchScalarUnderMasks drives the SM's row execution of
// every ALU/SFU opcode, selp and every setp comparison on random
// operands, with the destination often aliasing a source, under the
// exec masks of rowTestMasks. Each instruction is compiled as a
// one-instruction program, so immediates come from its constant rows. Each exec lane must get exactly the
// scalar EvalALU/EvalCmp result on the pre-instruction values; every
// other lane's registers and every other predicate stay untouched.
func TestRowKernelsMatchScalarUnderMasks(t *testing.T) {
	const nregs = 4
	r := rand.New(rand.NewSource(7))
	sm := &SM{}
	check := func(in *isa.Inst, w *Warp, exec uint32, regs []uint32, preds [isa.NumPredRegs]uint32) {
		t.Helper()
		for lane := 0; lane < isa.Lanes; lane++ {
			if w.regLanes&(1<<lane) == 0 {
				continue
			}
			for reg := 0; reg < nregs; reg++ {
				want := regs[reg*isa.Lanes+lane]
				if exec&(1<<lane) != 0 && in.Dst == isa.Reg(reg) {
					a, b, c := laneVal(regs, in.Src[0], lane), laneVal(regs, in.Src[1], lane), laneVal(regs, in.Src[2], lane)
					if in.Op == isa.OpSelp {
						want = b
						if preds[in.Src[2].Pred]&(1<<lane) != 0 {
							want = a
						}
					} else {
						want = isa.EvalALU(in.Op, a, b, c)
					}
				}
				if got := w.Reg(lane, isa.Reg(reg)); got != want {
					t.Fatalf("%s exec %#x: lane %d r%d = %#x, want %#x", in, exec, lane, reg, got, want)
				}
			}
		}
		for p := range preds {
			want := preds[p]
			if in.Op == isa.OpSetp && isa.PredReg(p) == in.PDst {
				var m uint32
				for lane := 0; lane < isa.Lanes; lane++ {
					if isa.EvalCmp(in.Cmp, laneVal(regs, in.Src[0], lane), laneVal(regs, in.Src[1], lane)) {
						m |= 1 << lane
					}
				}
				want = want&^exec | m&exec
			}
			if w.preds[p] != want {
				t.Fatalf("%s exec %#x: p%d = %#x, want %#x", in, exec, p, w.preds[p], want)
			}
		}
	}
	run := func(in *isa.Inst) {
		prog := &isa.Program{Name: "row", Insts: []isa.Inst{*in}, NumRegs: nregs}
		c := &compileKernel(prog, nil).consts[0]
		in = &prog.Insts[0]
		for _, exec := range rowTestMasks(r) {
			w := rowTestWarp(r, nregs)
			exec &= w.regLanes
			regs := append([]uint32(nil), w.regs...)
			preds := w.preds
			if in.Op == isa.OpSetp {
				sm.setp(w, in, c, exec)
			} else {
				sm.alu(w, in, c, exec)
			}
			check(in, w, exec, regs, preds)
		}
	}
	for trial := 0; trial < 40; trial++ {
		for op := isa.OpMov; op <= isa.OpRcp; op++ {
			dst := isa.Reg(r.Intn(nregs))
			in := &isa.Inst{Op: op, Dst: dst, PDst: isa.NoPred, Guard: isa.NoGuard}
			for i := range in.Src {
				in.Src[i] = randomSrc(r, nregs, dst)
			}
			run(in)
		}
		dst := isa.Reg(r.Intn(nregs))
		run(&isa.Inst{Op: isa.OpSelp, Dst: dst, PDst: isa.NoPred, Guard: isa.NoGuard,
			Src: [3]isa.Operand{randomSrc(r, nregs, dst), randomSrc(r, nregs, dst),
				isa.PredOperand(isa.PredReg(r.Intn(isa.NumPredRegs)))}})
		for cmp := isa.CmpEQ; cmp <= isa.CmpFGE; cmp++ {
			run(&isa.Inst{Op: isa.OpSetp, Cmp: cmp, Dst: isa.NoReg, Guard: isa.NoGuard,
				PDst: isa.PredReg(r.Intn(isa.NumPredRegs)),
				Src:  [3]isa.Operand{randomSrc(r, nregs, 0), randomSrc(r, nregs, 0)}})
		}
	}
}

// TestPartialMaskLeavesInactiveLanes runs guarded ALU, setp and selp
// instructions whose guard enables only lanes 0-4, on a full warp and on
// a 20-thread warp (lanes without a thread), and checks that every other
// lane keeps its register and predicate values.
func TestPartialMaskLeavesInactiveLanes(t *testing.T) {
	const src = `
    mov r0, %tid.x
    mov r1, 7
    setp.lt p0, r0, 5
    setp.eq p1, r0, r0
@p0 add r1, r1, r0
@p0 setp.ne p1, r0, r0
@!p0 selp r1, r1, 99, p1
    selp r2, 1, 0, p1
    shl r3, r0, 2
    st.global [r3], r1
    st.global [r3+128], r2
    exit
`
	for _, threads := range []int{32, 20} {
		d := newTestDevice(t)
		l := &Launch{Prog: isa.MustParse("partial", src), Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: threads}}
		if _, err := d.Run(l, nil); err != nil {
			t.Fatal(err)
		}
		mem := d.Mem.Words()
		for tid := 0; tid < threads; tid++ {
			// Lanes 0-4 add their tid and clear p1; the others keep r1 = 7
			// (the @!p0 selp reads the untouched p1 = true and writes r1 back).
			r1, r2 := uint32(7), uint32(1)
			if tid < 5 {
				r1, r2 = uint32(7+tid), 0
			}
			if mem[tid] != r1 || mem[32+tid] != r2 {
				t.Fatalf("%d threads: tid %d: r1 = %d, r2 = %d; want %d, %d",
					threads, tid, mem[tid], mem[32+tid], r1, r2)
			}
		}
	}
}

// TestConfigWarpSlotLimit checks that a configuration with more warp
// slots than the issue scan's 64-bit masks hold is rejected, and that
// every shipped architecture fits.
func TestConfigWarpSlotLimit(t *testing.T) {
	for _, cfg := range Architectures() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	cfg := GV100()
	cfg.MaxWarpsPerSM = 65
	if _, err := NewDevice(cfg, 1<<12); err == nil {
		t.Fatal("NewDevice accepted 65 warp slots per SM")
	}
}
