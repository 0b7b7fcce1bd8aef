package gpu

import (
	"testing"

	"flame/internal/isa"
)

// runForStats runs a launch on a fresh device and returns its stats and
// final memory, with event-driven cycle skipping on or off.
func runForStats(t *testing.T, noSkip bool, prog *isa.Program, grid, block isa.Dim3,
	params []uint32, setup func([]uint32), hooks *Hooks) (Stats, []uint32) {
	t.Helper()
	cfg := smallConfig()
	cfg.NoCycleSkip = noSkip
	d, err := NewDevice(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(d.Mem.Words())
	}
	l := &Launch{Prog: prog, Grid: grid, Block: block, Params: params}
	st, err := d.Run(l, hooks)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]uint32, len(d.Mem.Words()))
	copy(mem, d.Mem.Words())
	return *st, mem
}

// TestCycleSkipEquivalence asserts the tentpole invariant: fast-forwarding
// fully-stalled spans yields bit-identical statistics — not just Cycles,
// but every counter the naive loop books per stalled cycle — and
// identical memory, across compute-bound, memory-bound, barrier-heavy
// and divergent kernels.
func TestCycleSkipEquivalence(t *testing.T) {
	const memBound = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    ld.global r7, [r6]
	    ld.param r8, [4]
	    add r9, r8, r4
	    ld.global r10, [r9]
	    add r11, r7, r10
	    st.global [r9], r11
	    exit
	`
	const barriered = `
	    .shared 256
	    mov r0, %tid.x
	    shl r1, r0, 2
	    st.shared [r1], r0
	    bar.sync
	    xor r2, r0, 1
	    shl r3, r2, 2
	    ld.shared r4, [r3]
	    bar.sync
	    mov r5, %ctaid.x
	    mov r6, %ntid.x
	    mad r7, r5, r6, r0
	    shl r8, r7, 2
	    ld.param r9, [0]
	    add r10, r9, r8
	    st.global [r10], r4
	    exit
	`
	const divergent = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    and r4, r3, 3
	    mov r5, 0
	    setp.lt p0, r4, 2
	@p0 bra THEN
	    mul r5, r3, 3
	    bra DONE
	THEN:
	    mul r5, r3, 7
	DONE:
	    shl r6, r3, 2
	    ld.param r7, [0]
	    add r8, r7, r6
	    ld.global r9, [r8]
	    add r10, r9, r5
	    st.global [r8], r10
	    exit
	`
	cases := []struct {
		name  string
		src   string
		grid  isa.Dim3
		block isa.Dim3
	}{
		{"mem-bound", memBound, isa.Dim3{X: 16}, isa.Dim3{X: 128}},
		{"barrier", barriered, isa.Dim3{X: 8}, isa.Dim3{X: 64}},
		{"divergent", divergent, isa.Dim3{X: 8}, isa.Dim3{X: 96}},
	}
	setup := func(mem []uint32) {
		for i := 0; i < 4096; i++ {
			mem[i] = uint32(i * 2654435761)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := isa.MustParse(tc.name, tc.src)
			params := []uint32{0, 16384}
			naive, memN := runForStats(t, true, prog, tc.grid, tc.block, params, setup, nil)
			fast, memF := runForStats(t, false, prog, tc.grid, tc.block, params, setup, nil)
			if naive != fast {
				t.Errorf("stats diverge:\n naive: %+v\n  fast: %+v", naive, fast)
			}
			for i := range memN {
				if memN[i] != memF[i] {
					t.Fatalf("memory diverges at word %d: %#x != %#x", i, memN[i], memF[i])
				}
			}
			if naive.StallCycles == 0 {
				t.Errorf("%s never stalled; equivalence not exercised", tc.name)
			}
		})
	}
}

// TestCycleSkipSchedulers runs the memory-bound kernel under every
// scheduling policy: the skip decision consults only warp readiness, so
// policy state (greedy warp, two-level active set) must survive spans
// untouched and produce identical picks on resume.
func TestCycleSkipSchedulers(t *testing.T) {
	prog := isa.MustParse("vadd", vaddSrc)
	setup := func(mem []uint32) {
		for i := 0; i < 256; i++ {
			mem[i], mem[256+i] = uint32(i), uint32(3*i)
		}
	}
	for _, sched := range []SchedulerKind{GTO, LRR, OLD, TwoLevel} {
		t.Run(sched.String(), func(t *testing.T) {
			run := func(noSkip bool) Stats {
				cfg := smallConfig()
				cfg.Scheduler = sched
				cfg.NoCycleSkip = noSkip
				d, err := NewDevice(cfg, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				setup(d.Mem.Words())
				l := &Launch{Prog: prog, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64},
					Params: []uint32{0, 4 * 256, 8 * 256}}
				st, err := d.Run(l, hooksForSkipTest())
				if err != nil {
					t.Fatal(err)
				}
				return *st
			}
			naive, fast := run(true), run(false)
			if naive != fast {
				t.Errorf("stats diverge:\n naive: %+v\n  fast: %+v", naive, fast)
			}
		})
	}
}

// hooksForSkipTest returns a hook set with an OnAdvance-aware OnCycle
// consumer that records how often it runs, exercising the bound-query
// path (a consumer that only cares about every 500th cycle).
func hooksForSkipTest() *Hooks {
	return &Hooks{
		OnCycle: func(d *Device) {},
		OnAdvance: func(d *Device, from, to int64) int64 {
			next := (from/500 + 1) * 500
			if next < to {
				return next
			}
			return to
		},
	}
}

// TestCycleSkipBudgetError asserts the cycle-limit path is identical: a
// deadlocked launch (its only warp durably suspended by a hook, as
// WCDL-aware scheduling does) exhausts its budget at the same cycle with
// the same stall accounting, whether stepped or skipped — the skip path
// jumps straight to the budget and errors there.
func TestCycleSkipBudgetError(t *testing.T) {
	const src = `
	    mov r0, %tid.x
	    exit
	`
	prog := isa.MustParse("parked", src)
	var stats [2]Stats
	for i, noSkip := range []bool{true, false} {
		cfg := smallConfig()
		cfg.NoCycleSkip = noSkip
		d, err := NewDevice(cfg, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		// Suspend the warp durably (never resumed): a deadlock both loops
		// must diagnose at exactly MaxCycles.
		hooks := &Hooks{
			BeforeIssue: func(d *Device, sm *SM, w *Warp) bool {
				w.SetSuspended(true)
				return false
			},
		}
		l := &Launch{Prog: prog, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32},
			MaxCycles: 10_000}
		_, err = d.Run(l, hooks)
		if err == nil {
			t.Fatal("expected cycle-limit error")
		}
		if d.Cyc != 10_000 {
			t.Errorf("noSkip=%v: stopped at cycle %d, want 10000", noSkip, d.Cyc)
		}
		stats[i] = d.Stats
	}
	if stats[0] != stats[1] {
		t.Errorf("stall accounting diverges at the budget:\n naive: %+v\n  fast: %+v",
			stats[0], stats[1])
	}
}
