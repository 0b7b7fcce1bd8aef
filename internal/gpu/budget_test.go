package gpu

import (
	"errors"
	"testing"

	"flame/internal/isa"
)

// spinSrc loops forever: the launch must be cut off by the cycle budget.
const spinSrc = `
    mov r0, 0
LOOP:
    add r0, r0, 1
    setp.geu p0, r0, 0
@p0 bra LOOP
    exit
`

func TestLaunchCycleBudgetOverridesDevice(t *testing.T) {
	cfg := GTX480()
	cfg.NumSMs = 1
	d, err := NewDevice(cfg, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p := isa.MustParse("spin", spinSrc)
	l := &Launch{Prog: p, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}, MaxCycles: 2000}
	_, err = d.Run(l, nil)
	if err == nil {
		t.Fatal("runaway kernel finished?")
	}
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("error %v does not wrap ErrCycleLimit", err)
	}
	if d.Cyc != 2000 {
		t.Fatalf("launch stopped at cycle %d, want 2000", d.Cyc)
	}
	if d.MaxCycles != 200_000_000 {
		t.Fatalf("launch budget mutated the device guard: %d", d.MaxCycles)
	}

	// Without the override the device-wide guard applies (trimmed down so
	// the test stays fast).
	d2, err := NewDevice(cfg, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	d2.MaxCycles = 3000
	_, err = d2.Run(&Launch{Prog: p, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}}, nil)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("device guard: %v", err)
	}
	if d2.Cyc != 3000 {
		t.Fatalf("device guard stopped the launch at cycle %d, want 3000", d2.Cyc)
	}
}

// TestDeadlockExhaustsBudget: a launch whose only warp a hook suspends
// durably (as WCDL-aware scheduling does, here never resumed) is
// diagnosed at exactly its budget, having booked one stall cycle per
// cycle and an RBQ wait on every cycle after the suspending one.
func TestDeadlockExhaustsBudget(t *testing.T) {
	const src = `
	    mov r0, %tid.x
	    exit
	`
	d, err := NewDevice(smallConfig(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	hooks := &Hooks{
		BeforeIssue: func(d *Device, sm *SM, w *Warp) bool {
			w.SetSuspended(true)
			return false
		},
	}
	l := &Launch{Prog: isa.MustParse("parked", src), Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32},
		MaxCycles: 10_000}
	if _, err := d.Run(l, hooks); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("error %v does not wrap ErrCycleLimit", err)
	}
	if d.Cyc != 10_000 {
		t.Errorf("stopped at cycle %d, want 10000", d.Cyc)
	}
	if d.Stats.StallCycles != 10_000 || d.Stats.RBQWaitCycles != 9_999 {
		t.Errorf("StallCycles %d, RBQWaitCycles %d; want 10000 and 9999",
			d.Stats.StallCycles, d.Stats.RBQWaitCycles)
	}
}
