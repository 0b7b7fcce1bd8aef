package core

import (
	"strings"
	"testing"
	"time"

	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// spinTrialSrc counts to 64 with an exact-equality loop exit (setp.ne):
// a full-site bit flip in the counter that jumps past 64 wraps the
// 32-bit space before ever matching again — the canonical hang.
const spinTrialSrc = `
    mov r0, %tid.x
    mov r1, %ctaid.x
    mov r2, %ntid.x
    mad r3, r1, r2, r0
    mov r4, 0
    mov r5, 0
LOOP:
    add r5, r5, r4
    add r4, r4, 1
    setp.ne p0, r4, 64
@p0 bra LOOP
    ld.param r6, [0]
    shl r7, r3, 2
    add r8, r6, r7
    st.global [r8], r5
    exit
`

func spinSpec() *KernelSpec {
	const n = 2 * 64
	return &KernelSpec{
		Name:     "spin",
		Prog:     isa.MustParse("spin", spinTrialSrc),
		Grid:     isa.Dim3{X: 2},
		Block:    isa.Dim3{X: 64},
		Params:   []uint32{0},
		MemBytes: 1 << 12,
	}
}

// freshTrial runs ts as the fresh-device reference: a brand-new engine
// (new device) with full-image restore and full-footprint diff.
func freshTrial(cfg gpu.Config, spec *KernelSpec, g *Golden, ts TrialSpec) *TrialResult {
	eng := NewEngine(cfg)
	eng.SetNoCOW(true)
	return eng.RunTrial(spec, g, ts)
}

func TestGoldenRunAndHangBudget(t *testing.T) {
	g, err := GoldenRun(testCfg(), saxpySpec(), FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Window <= 0 || len(g.Mem) == 0 {
		t.Fatalf("golden: window=%d mem=%d", g.Window, len(g.Mem))
	}
	if g.MaxDelay != 20 {
		t.Fatalf("sensor golden MaxDelay = %d, want WCDL 20", g.MaxDelay)
	}
	if got, want := g.HangBudget(0), 8*g.Window+10_000; got != want {
		t.Fatalf("default hang budget = %d, want %d", got, want)
	}
	if got, want := g.HangBudget(3), 3*g.Window+10_000; got != want {
		t.Fatalf("hang budget mult 3 = %d, want %d", got, want)
	}
	// Baseline goldens model immediate (never firing) detection.
	bg, err := GoldenRun(testCfg(), spinSpec(), Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if bg.MaxDelay != 0 {
		t.Fatalf("baseline golden MaxDelay = %d", bg.MaxDelay)
	}
}

// TestTrialMaskedNotRecovered is the misclassification regression: a
// strike that corrupts state but is never detected, with output still
// matching the golden run, must classify as Masked — never Recovered.
// Unprotected Baseline runs produce such trials reliably (no detector
// exists, yet many corruptions die in overwritten or dead registers).
func TestTrialMaskedNotRecovered(t *testing.T) {
	cfg, spec := testCfg(), saxpySpec()
	g, err := GoldenRun(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	masked := 0
	for arm := int64(10); arm < g.Window; arm += g.Window / 40 {
		tr := freshTrial(cfg, spec, g, TrialSpec{
			Arms: []int64{arm}, Seed: arm, MaxCycles: g.HangBudget(0),
		})
		if tr.Detections == 0 && tr.Outcome == OutcomeRecovered {
			t.Fatalf("arm %d: undetected trial classified Recovered (%s)", arm, tr.Description)
		}
		if tr.Outcome == OutcomeMasked {
			masked++
			if tr.Strikes == 0 || tr.Detections != 0 {
				t.Fatalf("arm %d: masked trial with strikes=%d detections=%d",
					arm, tr.Strikes, tr.Detections)
			}
		}
	}
	if masked == 0 {
		t.Fatal("no masked trial in the sweep; masking on unprotected runs should be common")
	}
	t.Logf("masked %d trials in sweep", masked)
}

// TestTrialNoInjection: an arm beyond the window never fires.
func TestTrialNoInjection(t *testing.T) {
	cfg, spec := testCfg(), saxpySpec()
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := freshTrial(cfg, spec, g, TrialSpec{
		Arms: []int64{g.Window * 4}, Seed: 1, MaxCycles: g.HangBudget(0),
	})
	if tr.Outcome != OutcomeNoInjection || tr.Strikes != 0 {
		t.Fatalf("late arm: outcome=%v strikes=%d", tr.Outcome, tr.Strikes)
	}
}

// TestTrialRecovered: a mid-window strike under the full Flame scheme is
// detected, recovered, and the output matches the golden run.
func TestTrialRecovered(t *testing.T) {
	cfg, spec := testCfg(), saxpySpec()
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := freshTrial(cfg, spec, g, TrialSpec{
		Arms: []int64{g.Window / 2}, Seed: 3, MaxCycles: g.HangBudget(0),
	})
	if tr.Outcome != OutcomeRecovered {
		t.Fatalf("outcome = %v (err=%q desc=%q)", tr.Outcome, tr.Err, tr.Description)
	}
	if !tr.Detected || tr.Detections != 1 || tr.Recoveries < 1 {
		t.Fatalf("detected=%v detections=%d recoveries=%d", tr.Detected, tr.Detections, tr.Recoveries)
	}
}

// TestTrialHangClassified is the watchdog test: a full-site strike on an
// unprotected exact-equality loop livelocks, and the per-launch cycle
// budget classifies it Hang instead of stalling for the 200M-cycle
// device guard.
func TestTrialHangClassified(t *testing.T) {
	cfg, spec := testCfg(), spinSpec()
	g, err := GoldenRun(cfg, spec, Options{Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	budget := g.HangBudget(0)
	var hangs, dues, sdcs int
	for arm := int64(5); arm <= 100; arm += 5 {
		for seed := int64(1); seed <= 3; seed++ {
			tr := freshTrial(cfg, spec, g, TrialSpec{
				Arms: []int64{arm}, Model: flame.FullSite, Seed: seed, MaxCycles: budget,
			})
			switch tr.Outcome {
			case OutcomeHang:
				hangs++
				if tr.Cycles != budget {
					t.Fatalf("hang trial reports %d cycles, want its %d budget", tr.Cycles, budget)
				}
				if !strings.Contains(tr.Err, "cycle limit") {
					t.Fatalf("hang error = %q", tr.Err)
				}
			case OutcomeDUE:
				dues++
				if tr.Cycles <= 0 {
					t.Fatalf("DUE trial reports %d cycles (%s)", tr.Cycles, tr.Err)
				}
			case OutcomeSDC:
				sdcs++
			}
		}
	}
	if hangs == 0 {
		t.Fatalf("no hang in the sweep (dues=%d sdcs=%d); loop-counter corruption should livelock", dues, sdcs)
	}
	t.Logf("full-site on unprotected spin: hangs=%d dues=%d sdcs=%d", hangs, dues, sdcs)
}

// TestTrialDataSliceNeverHangs: under the paper's fault model with the
// full Flame scheme, the same sweep yields only benign outcomes.
func TestTrialDataSliceNeverHangs(t *testing.T) {
	cfg, spec := testCfg(), spinSpec()
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	for arm := int64(5); arm <= 100; arm += 5 {
		tr := freshTrial(cfg, spec, g, TrialSpec{
			Arms: []int64{arm}, Model: flame.DataSlice, Seed: arm, MaxCycles: g.HangBudget(0),
		})
		switch tr.Outcome {
		case OutcomeSDC, OutcomeDUE, OutcomeHang:
			t.Fatalf("arm %d: data-slice trial under Flame ended %v (%s)", arm, tr.Outcome, tr.Description)
		}
	}
}

// TestTrialPanicRecovered is the worker-survival regression: a panic
// escaping the simulator mid-trial (here provoked by a deliberately
// panicking observer hook) is recovered at the trial boundary and
// classified OutcomeInternal instead of killing the process — and on
// the pooled-engine path the poisoned device is discarded, so the next
// trial on the same engine still classifies correctly.
func TestTrialPanicRecovered(t *testing.T) {
	cfg, spec := testCfg(), saxpySpec()
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	boom := &gpu.Hooks{OnExecuted: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
		if d.Cycle() > g.Window/2 {
			panic("deliberate trial panic")
		}
	}}

	tr := freshTrial(cfg, spec, g, TrialSpec{
		Arms: []int64{g.Window * 4}, Seed: 1, MaxCycles: g.HangBudget(0), Hooks: boom,
	})
	if tr.Outcome != OutcomeInternal {
		t.Fatalf("fresh-device panic trial: outcome=%v err=%q", tr.Outcome, tr.Err)
	}
	if !strings.Contains(tr.Description, "deliberate trial panic") {
		t.Fatalf("panic description = %q", tr.Description)
	}

	eng := NewEngine(cfg)
	tr = eng.RunTrial(spec, g, TrialSpec{
		Arms: []int64{g.Window * 4}, Seed: 1, MaxCycles: g.HangBudget(0), Hooks: boom,
	})
	if tr.Outcome != OutcomeInternal {
		t.Fatalf("pooled panic trial: outcome=%v err=%q", tr.Outcome, tr.Err)
	}
	if !strings.Contains(tr.Err, "trial panic") || !strings.Contains(tr.Err, "goroutine") {
		t.Fatalf("panic Err should carry the panic and a stack, got %q", tr.Err)
	}
	// The engine must have evicted the abandoned device: a follow-up
	// clean trial classifies as if run on a fresh engine.
	tr = eng.RunTrial(spec, g, TrialSpec{
		Arms: []int64{g.Window / 2}, Seed: 3, MaxCycles: g.HangBudget(0),
	})
	if tr.Outcome != OutcomeRecovered {
		t.Fatalf("trial after recovered panic: outcome=%v err=%q", tr.Outcome, tr.Err)
	}
}

// TestTrialWallClockTimeout: an already-expired wall-clock budget aborts
// the trial with gpu.ErrWallClock and classifies it Hang — the
// host-time complement to the cycle budget, so a simulator livelock
// cannot wedge a worker process forever.
func TestTrialWallClockTimeout(t *testing.T) {
	cfg, spec := testCfg(), saxpySpec()
	g, err := GoldenRun(cfg, spec, FlameOptions())
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, tr *TrialResult) {
		t.Helper()
		if tr.Outcome != OutcomeHang {
			t.Fatalf("%s: timed-out trial outcome=%v err=%q", path, tr.Outcome, tr.Err)
		}
		if !strings.Contains(tr.Err, "wall-clock") {
			t.Fatalf("%s: timeout error = %q", path, tr.Err)
		}
	}
	ts := TrialSpec{
		Arms: []int64{g.Window * 4}, Seed: 1,
		MaxCycles: g.HangBudget(0), Timeout: time.Nanosecond,
	}
	check("fresh", freshTrial(cfg, spec, g, ts))
	check("pooled", NewEngine(cfg).RunTrial(spec, g, ts))

	// A generous budget never fires: the trial is untouched.
	ts.Timeout = time.Hour
	if tr := freshTrial(cfg, spec, g, ts); tr.Outcome != OutcomeNoInjection {
		t.Fatalf("generous timeout changed the trial: %v (%q)", tr.Outcome, tr.Err)
	}
}
