package gpu

import (
	"testing"

	"flame/internal/isa"
)

// smallConfig returns a fast-to-simulate configuration for tests.
func smallConfig() Config {
	c := GTX480()
	c.NumSMs = 2
	return c
}

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(smallConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

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
    add r12, r9, r11
    add r13, r7, r4
    st.global [r13], r12
    exit
`

func TestVectorAdd(t *testing.T) {
	d := newTestDevice(t)
	const n = 256
	// a at 0, b at 4n, c at 8n.
	for i := 0; i < n; i++ {
		d.Mem.Words()[i] = uint32(i)
		d.Mem.Words()[n+i] = uint32(10 * i)
	}
	l := &Launch{
		Prog:   isa.MustParse("vadd", vaddSrc),
		Grid:   isa.Dim3{X: 4, Y: 1, Z: 1},
		Block:  isa.Dim3{X: 64, Y: 1, Z: 1},
		Params: []uint32{0, 4 * n, 8 * n},
	}
	st, err := d.Run(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := d.Mem.Words()[2*n+i]; got != uint32(11*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 11*i)
		}
	}
	if st.Cycles <= 0 || st.Issued <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BlocksRun != 4 {
		t.Fatalf("blocks = %d", st.BlocksRun)
	}
}

func TestDivergenceDiamond(t *testing.T) {
	src := `
    mov r0, %tid.x
    setp.lt p0, r0, 16
@!p0 bra ELSE
    mov r1, 111
    bra JOIN
ELSE:
    mov r1, 222
JOIN:
    shl r2, r0, 2
    ld.param r3, [0]
    add r4, r3, r2
    st.global [r4], r1
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("diamond", src),
		Grid:   isa.Dim3{X: 1, Y: 1, Z: 1},
		Block:  isa.Dim3{X: 32, Y: 1, Z: 1},
		Params: []uint32{0},
	}
	if _, err := d.Run(l, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(222)
		if i < 16 {
			want = 111
		}
		if got := d.Mem.Words()[i]; got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestLoopAndFloat(t *testing.T) {
	// out[tid] = sum_{k=0..7} (tid + k) as float.
	src := `
    mov r0, %tid.x
    itof r1, r0
    mov r2, 0
    fmul r3, r1, 0f
LOOP:
    itof r4, r2
    fadd r5, r1, r4
    fadd r3, r3, r5
    add r2, r2, 1
    setp.lt p0, r2, 8
@p0 bra LOOP
    shl r6, r0, 2
    ld.param r7, [0]
    add r8, r7, r6
    st.global [r8], r3
    exit
`
	// "fmul r3, r1, 0f" zeroes r3 as a float.
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("loop", src),
		Grid:   isa.Dim3{X: 1},
		Block:  isa.Dim3{X: 32},
		Params: []uint32{0},
	}
	if _, err := d.Run(l, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := float32(8*i + 28)
		if got := isa.F32FromBits(d.Mem.Words()[i]); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBarrierReduction(t *testing.T) {
	// Shared-memory tree reduction over one block of 64 threads.
	src := `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    mov r2, 1
    st.shared [r1], r2
    bar.sync
    mov r3, 32
RED:
    setp.lt p0, r0, r3
@!p0 bra SKIP
    shl r4, r3, 2
    add r5, r1, r4
    ld.shared r6, [r5]
    ld.shared r7, [r1]
    add r8, r6, r7
    st.shared [r1], r8
SKIP:
    bar.sync
    shr r3, r3, 1
    setp.gt p1, r3, 0
@p1 bra RED
    setp.eq p2, r0, 0
@!p2 bra DONE
    ld.shared r9, [r1]
    ld.param r10, [0]
    st.global [r10], r9
DONE:
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("reduce", src),
		Grid:   isa.Dim3{X: 1},
		Block:  isa.Dim3{X: 64},
		Params: []uint32{128},
	}
	st, err := d.Run(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Mem.Words()[32]; got != 64 {
		t.Fatalf("reduction = %d, want 64", got)
	}
	if st.BarrierWaits == 0 {
		t.Fatal("expected barrier wait cycles")
	}
}

func TestAtomicsHistogram(t *testing.T) {
	// Each of 128 threads increments bin tid%8.
	src := `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    and r4, r3, 7
    shl r5, r4, 2
    ld.param r6, [0]
    add r7, r6, r5
    mov r8, 1
    atom.global.add r9, [r7], r8
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("hist", src),
		Grid:   isa.Dim3{X: 2},
		Block:  isa.Dim3{X: 64},
		Params: []uint32{0},
	}
	st, err := d.Run(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if got := d.Mem.Words()[b]; got != 16 {
			t.Fatalf("bin[%d] = %d, want 16", b, got)
		}
	}
	if st.Atomics != 128 {
		t.Fatalf("atomics = %d", st.Atomics)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	// Stride-32 shared accesses: all lanes hit bank 0 -> conflicts.
	conflict := `
.shared 8192
    mov r0, %tid.x
    shl r1, r0, 7      // tid*128 bytes: all bank 0
    mov r2, 5
    st.shared [r1], r2
    ld.shared r3, [r1]
    ld.param r4, [0]
    shl r5, r0, 2
    add r6, r4, r5
    st.global [r6], r3
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("conflict", conflict),
		Grid:   isa.Dim3{X: 1},
		Block:  isa.Dim3{X: 32},
		Params: []uint32{0},
	}
	st, err := d.Run(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedConflicts == 0 {
		t.Fatal("expected shared bank conflicts")
	}
}

func TestPredicatedExitLanes(t *testing.T) {
	// Half the lanes exit early; the rest store.
	src := `
    mov r0, %tid.x
    setp.lt p0, r0, 16
@p0 exit
    shl r1, r0, 2
    ld.param r2, [0]
    add r3, r2, r1
    mov r4, 9
    st.global [r3], r4
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("pexit", src),
		Grid:   isa.Dim3{X: 1},
		Block:  isa.Dim3{X: 32},
		Params: []uint32{0},
	}
	if _, err := d.Run(l, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(0)
		if i >= 16 {
			want = 9
		}
		if got := d.Mem.Words()[i]; got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestAllSchedulersProduceSameResults(t *testing.T) {
	for _, sk := range []SchedulerKind{GTO, LRR, OLD, TwoLevel} {
		cfg := smallConfig()
		cfg.Scheduler = sk
		d, err := NewDevice(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		const n = 256
		for i := 0; i < n; i++ {
			d.Mem.Words()[i] = uint32(i)
			d.Mem.Words()[n+i] = uint32(2 * i)
		}
		l := &Launch{
			Prog:   isa.MustParse("vadd", vaddSrc),
			Grid:   isa.Dim3{X: 4},
			Block:  isa.Dim3{X: 64},
			Params: []uint32{0, 4 * n, 8 * n},
		}
		st, err := d.Run(l, nil)
		if err != nil {
			t.Fatalf("%v: %v", sk, err)
		}
		for i := 0; i < n; i++ {
			if got := d.Mem.Words()[2*n+i]; got != uint32(3*i) {
				t.Fatalf("%v: c[%d] = %d, want %d", sk, i, got, 3*i)
			}
		}
		if st.Cycles <= 0 {
			t.Fatalf("%v: no cycles", sk)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		d := newTestDevice(t)
		const n = 256
		for i := 0; i < n; i++ {
			d.Mem.Words()[i] = uint32(i)
		}
		l := &Launch{
			Prog:   isa.MustParse("vadd", vaddSrc),
			Grid:   isa.Dim3{X: 4},
			Block:  isa.Dim3{X: 64},
			Params: []uint32{0, 4 * n, 8 * n},
		}
		st, err := d.Run(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := smallConfig()
	p := isa.MustParse("occ", vaddSrc)
	l := &Launch{Prog: p, Grid: isa.Dim3{X: 64}, Block: isa.Dim3{X: 256}, Params: []uint32{0, 0, 0}}
	// 256 threads = 8 warps; 48 warps/SM allows 6 blocks; MaxBlocks 8.
	if got := l.BlocksPerSM(&cfg); got != 6 {
		t.Fatalf("occupancy = %d, want 6", got)
	}
	// Shared memory bound.
	p2 := p.Clone()
	p2.SharedBytes = 20 << 10
	l2 := &Launch{Prog: p2, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 256}}
	if got := l2.BlocksPerSM(&cfg); got != 2 {
		t.Fatalf("shared-bound occupancy = %d, want 2", got)
	}
}

func TestMemFaultReported(t *testing.T) {
	src := `
    mov r0, 0x7FFFFFF0
    ld.global r1, [r0]
    exit
`
	d := newTestDevice(t)
	l := &Launch{Prog: isa.MustParse("oob", src), Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 1}}
	if _, err := d.Run(l, nil); err == nil {
		t.Fatal("expected out-of-bounds fault")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	src := `
SPIN:
    bra SPIN
    exit
`
	d := newTestDevice(t)
	d.MaxCycles = 1000
	l := &Launch{Prog: isa.MustParse("spin", src), Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 1}}
	if _, err := d.Run(l, nil); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestHooksBeforeIssueSuspends(t *testing.T) {
	// Suspend every warp at its first boundary crossing for 100 cycles,
	// then release: run must still complete correctly.
	src := `
    mov r0, %tid.x
    mov r9, %ctaid.x
    mov r10, %ntid.x
    mad r0, r9, r10, r0
    shl r1, r0, 2
    ld.param r2, [0]
    add r3, r2, r1
    ld.global r4, [r3]
    --
    add r5, r4, 1
    st.global [r3], r5
    exit
`
	d := newTestDevice(t)
	for i := 0; i < 64; i++ {
		d.Mem.Words()[i] = uint32(i)
	}
	type rel struct {
		w  *Warp
		at int64
	}
	var pending []rel
	released := map[*Warp]bool{}
	hooks := &Hooks{
		BeforeIssue: func(d *Device, sm *SM, w *Warp) bool {
			in := &d.launch.Prog.Insts[w.PC()]
			if in.Boundary && !released[w] {
				w.SetSuspended(true)
				pending = append(pending, rel{w, d.Cyc + 100})
				released[w] = true
				return false
			}
			return true
		},
		OnCycle: func(d *Device) {
			for i := 0; i < len(pending); {
				if d.Cyc >= pending[i].at {
					pending[i].w.SetSuspended(false)
					pending = append(pending[:i], pending[i+1:]...)
				} else {
					i++
				}
			}
		},
	}
	l := &Launch{
		Prog:   isa.MustParse("hook", src),
		Grid:   isa.Dim3{X: 2},
		Block:  isa.Dim3{X: 32},
		Params: []uint32{0},
	}
	st, err := d.Run(l, hooks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if got := d.Mem.Words()[i]; got != uint32(i+1) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	if st.RBQWaitCycles == 0 {
		t.Fatal("expected suspension wait cycles")
	}
}

func TestSpecialRegisters2D(t *testing.T) {
	src := `
    mov r0, %tid.x
    mov r1, %tid.y
    mov r2, %ntid.x
    mad r3, r1, r2, r0     // linear tid in block
    mov r4, %ctaid.y
    mov r5, %nctaid.x
    mov r6, %ctaid.x
    mad r7, r4, r5, r6     // linear block id
    mov r8, %ntid.y
    mul r9, r2, r8
    mad r10, r7, r9, r3    // global linear id
    shl r11, r10, 2
    ld.param r12, [0]
    add r13, r12, r11
    st.global [r13], r10
    exit
`
	d := newTestDevice(t)
	l := &Launch{
		Prog:   isa.MustParse("2d", src),
		Grid:   isa.Dim3{X: 2, Y: 2},
		Block:  isa.Dim3{X: 8, Y: 4},
		Params: []uint32{0},
	}
	if _, err := d.Run(l, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got := d.Mem.Words()[i]; got != uint32(i) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}
