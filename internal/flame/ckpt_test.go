package flame

import (
	"hash/fnv"
	"testing"

	"flame/internal/checkpoint"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/regions"
)

// partialCkptSrc checkpoints several registers, some of them only on a
// divergent path that 3 of every 8 lanes take, so checkpoint stores run
// under partial active masks. Region inputs r3 and r4 are overwritten
// after being read, so a recovery that restores the wrong checkpoint (or
// a stale one) produces a wrong output.
const partialCkptSrc = `
    mov r0, %tid.x
    mov r9, %ctaid.x
    mov r10, %ntid.x
    mad r0, r9, r10, r0
    shl r8, r0, 2
    ld.param r1, [0]
    add r1, r1, r8
    ld.global r2, [r1]
    mov r3, r2
    add r4, r2, 3
    and r11, r0, 7
    setp.lt p0, r11, 3
@!p0 bra SKIP
    add r3, r3, 5
    st.global [r1], r3
    ld.global r12, [r1]
    add r4, r4, r12
    mov r3, 9
SKIP:
    add r5, r3, r4
    ld.global r13, [r1]
    st.global [r1], r5
    mov r4, 1
    add r6, r4, r13
    add r6, r6, r3
    st.global [r1+1024], r6
    exit
`

// ckptThreads is the thread count of the partialCkptSrc launch: three
// blocks of 48 threads, so every second warp runs with 16 live lanes.
const ckptThreads = 3 * 48

// partialCkptWant returns the expected outputs of thread i, whose input
// is v.
func partialCkptWant(i int, v uint32) [2]uint32 {
	if i&7 < 3 {
		return [2]uint32{2*v + 17, v + 15}
	}
	return [2]uint32{2*v + 3, 2*v + 1}
}

func compilePartialCkpt(t *testing.T) (*isa.Program, []regions.Section, map[isa.Reg]int32) {
	t.Helper()
	p := isa.MustParse("partial", partialCkptSrc)
	res, err := regions.Form(p, regions.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Slots) < 3 {
		t.Fatalf("only %d checkpointed registers; the kernel no longer exercises several", len(ck.Slots))
	}
	return p, res.Sections, ck.Slots
}

// ckptRun is the observable result of one partialCkptSrc run.
type ckptRun struct {
	cycles     int64
	recoveries int64
	restored   int64
	// digest hashes every live warp's registers right after each
	// recovery, then the output memory.
	digest uint64
}

// runPartialCkpt runs partialCkptSrc on one SM that holds one block at a
// time, so retired warps are recycled for later blocks, with optional
// spurious recoveries and an optional injected strike.
func runPartialCkpt(t *testing.T, p *isa.Program, sections []regions.Section, slots map[isa.Reg]int32,
	fps []int64, inj *Injector) ckptRun {
	t.Helper()
	cfg := gpu.GTX480()
	cfg.NumSMs = 1
	cfg.MaxBlocksPerSM = 1
	d, err := gpu.NewDevice(cfg, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ckptThreads; i++ {
		d.Mem.Words()[i] = uint32(100 + 7*i)
	}
	c := NewController(Mode{WCDL: 12, UseRBQ: true, Sections: sections, CkptSlots: slots})
	c.FalsePositives = fps
	c.Inj = inj
	h := fnv.New64a()
	var seen int64
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	probe := &gpu.Hooks{OnCycle: func(d *gpu.Device) {
		if c.Stats.Recoveries == seen {
			return
		}
		seen = c.Stats.Recoveries
		for _, sm := range d.SMs {
			for _, w := range sm.Warps {
				if w == nil || w.Finished {
					continue
				}
				put(uint32(w.GlobalBlock))
				put(uint32(w.WarpInBlock))
				for _, regs := range w.Regs {
					for _, v := range regs {
						put(v)
					}
				}
			}
		}
	}, OnAdvance: func(d *gpu.Device, from, to int64) int64 { return to }}
	launch := &gpu.Launch{Prog: p, Grid: isa.Dim3{X: 3}, Block: isa.Dim3{X: 48}, Params: []uint32{0}}
	st, err := d.Run(launch, gpu.CombineHooks(c.Hooks(), probe))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ckptThreads; i++ {
		for k, w := range partialCkptWant(i, uint32(100+7*i)) {
			if got := d.Mem.Words()[256*k+i]; got != w {
				t.Fatalf("fps=%v: out%d[%d] = %d, want %d", fps, k, i, got, w)
			}
		}
	}
	for _, v := range d.Mem.Words()[:512] {
		put(v)
	}
	return ckptRun{cycles: st.Cycles, recoveries: c.Stats.Recoveries, restored: c.Stats.RestoredRegs, digest: h.Sum64()}
}

// sweepPartialCkpt runs one spurious recovery at every 5th cycle of the
// fault-free run, then one injected strike at every 5th cycle, and
// folds every run's digest into one.
func sweepPartialCkpt(t *testing.T) (restored, recoveries int64, digest uint64) {
	p, sections, slots := compilePartialCkpt(t)
	free := runPartialCkpt(t, p, sections, slots, nil, nil)
	h := fnv.New64a()
	fold := func(r ckptRun) {
		restored += r.restored
		recoveries += r.recoveries
		var b [8]byte
		for k := range b {
			b[k] = byte(r.digest >> (8 * k))
		}
		h.Write(b[:])
	}
	for cyc := int64(0); cyc < free.cycles; cyc += 5 {
		fold(runPartialCkpt(t, p, sections, slots, []int64{cyc}, nil))
	}
	for arm := int64(0); arm < free.cycles; arm += 5 {
		fold(runPartialCkpt(t, p, sections, slots, nil, NewInjector(arm, 12, arm+1)))
	}
	return restored, recoveries, h.Sum64()
}

// TestCkptRestoreRecorded pins the sweep to the figures the earlier
// map-per-warp checkpoint store produced: the restored-register count,
// the recovery count, and a digest of every live warp's registers
// right after each recovery plus each run's outputs. Every run also
// checks its outputs against partialCkptWant.
func TestCkptRestoreRecorded(t *testing.T) {
	restored, recoveries, digest := sweepPartialCkpt(t)
	if restored != 22460 || recoveries != 765 || digest != 0xf5439b46e3095723 {
		t.Fatalf("restored %d, recoveries %d, digest %#x; recorded 22460, 765, 0xf5439b46e3095723",
			restored, recoveries, digest)
	}
}

// fakeWarp builds a warp outside a device: lanes with a nil register
// file are dead, and the top of the SIMT stack carries the active mask.
func fakeWarp(nregs int, alive, active uint32) *gpu.Warp {
	w := &gpu.Warp{AliveMask: alive, Stack: gpu.SIMTStack{{Mask: active}}}
	w.Regs = make([][]uint32, 32)
	for lane := range w.Regs {
		if alive&(1<<lane) != 0 {
			w.Regs[lane] = make([]uint32, nregs)
		}
	}
	return w
}

func fillRegs(w *gpu.Warp, base uint32) {
	for lane, regs := range w.Regs {
		for r := range regs {
			regs[r] = base + uint32(100*lane+r)
		}
	}
}

// TestCkptBufReuse drives the checkpoint buffer directly: a partial
// mask restores only the lanes that checkpointed, a pending checkpoint
// is never restored and a recovery discards it, and a retired warp's
// recycled buffer carries no stale entries into the warp that reuses it.
func TestCkptBufReuse(t *testing.T) {
	c := NewController(Mode{CkptSlots: map[isa.Reg]int32{9: 0, 2: 4, 5: 8}})
	w := fakeWarp(10, 0x0000ffff, 0x000000f0) // 16 live lanes, 4 active
	fillRegs(w, 0)
	c.recordCkpt(w, 5)
	c.recordCkpt(w, 9)
	c.advanceRPT(w, Snapshot{})
	c.recordCkpt(w, 2) // still pending at the recovery
	fillRegs(w, 1<<20)
	c.restoreCkpt(w)
	if c.Stats.RestoredRegs != 8 {
		t.Fatalf("restored %d registers, want 8 (4 lanes x r5, r9)", c.Stats.RestoredRegs)
	}
	for lane, regs := range w.Regs[:16] {
		for r, v := range regs {
			want := uint32(1<<20 + 100*lane + r)
			if lane >= 4 && lane < 8 && (r == 5 || r == 9) {
				want = uint32(100*lane + r)
			}
			if v != want {
				t.Fatalf("lane %d r%d = %d, want %d", lane, r, v, want)
			}
		}
	}

	// The recovery dropped the pending r2: committing the re-executed
	// region's (empty) pending set must not bring it back.
	c.advanceRPT(w, Snapshot{})
	c.restoreCkpt(w)
	if c.Stats.RestoredRegs != 16 {
		t.Fatalf("second recovery restored %d registers, want 8 (the dropped pending r2 committed?)", c.Stats.RestoredRegs-8)
	}

	// The warp retires; the pool hands the same *gpu.Warp to a new warp,
	// whose recovery before any checkpoint must restore nothing.
	buf := c.ckpt[w]
	c.forgetWarp(w)
	w = fakeWarp(10, 0xffffffff, 0xffffffff)
	c.recordCkpt(w, 2)
	if c.ckpt[w] != buf || len(c.ckptFree) != 0 {
		t.Fatal("the retired warp's buffer was not recycled")
	}
	c.restoreCkpt(w)
	if c.Stats.RestoredRegs != 16 {
		t.Fatalf("recycled buffer restored %d stale registers", c.Stats.RestoredRegs-16)
	}
	c.recordCkpt(w, 2)
	c.advanceRPT(w, Snapshot{})
	c.restoreCkpt(w)
	if got := c.Stats.RestoredRegs - 16; got != 32 {
		t.Fatalf("recycled buffer restored %d registers, want 32 (32 lanes x r2)", got)
	}
}
