package flame

import (
	"fmt"
	"testing"

	"flame/internal/gpu"
	"flame/internal/isa"
)

func TestParseFaultModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FaultModel
	}{{"data", DataSlice}, {"data-slice", DataSlice}, {"full", FullSite}, {"full-site", FullSite}} {
		got, err := ParseFaultModel(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFaultModel(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.want.String() {
			t.Fatalf("round trip %q", tc.in)
		}
	}
	if _, err := ParseFaultModel("bogus"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestAddressControlSlice(t *testing.T) {
	// In the saxpy loop, address bases (r12, r14 and everything feeding
	// them) and the loop counter chain (r4 via setp.lt) are excluded;
	// pure data values (the loaded x/y and the arithmetic results r16,
	// r17) are injectable.
	p := isa.MustParse("k", saxpyLoopSrc)
	s := dataflowSlice(p, false)
	for _, r := range []isa.Reg{12, 14, 4, 11, 5, 6} {
		if !s[r] {
			t.Errorf("%s should be in the address/control slice", r)
		}
	}
	for _, r := range []isa.Reg{13, 15, 16, 17} {
		if s[r] {
			t.Errorf("%s is pure data; must be injectable", r)
		}
	}
}

// TestCampaignInjectorMultiStrike arms two strikes; both must be
// injected, detected and recovered, leaving a correct output.
func TestCampaignInjectorMultiStrike(t *testing.T) {
	const n = 256
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	for seed := int64(1); seed <= 6; seed++ {
		d := testDevice(t)
		setupSaxpy(d, n)
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
		c.Inj = NewCampaignInjector(NewSites(p), []int64{100, 900}, 20, DataSlice, seed)
		if _, err := d.Run(saxpyLaunch(p, n), c.Hooks()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := c.Inj.FiredStrikes(); got != 2 {
			t.Fatalf("seed %d: fired %d strikes, want 2", seed, got)
		}
		if !c.Inj.Detected || c.Inj.Detections != 2 {
			t.Fatalf("seed %d: detected=%v detections=%d", seed, c.Inj.Detected, c.Inj.Detections)
		}
		if c.Stats.Recoveries < 2 {
			t.Fatalf("seed %d: recoveries = %d, want >= 2", seed, c.Stats.Recoveries)
		}
		checkSaxpy(t, d, n, fmt.Sprintf("multi seed %d (%s)", seed, c.Inj.Description))
	}
}

// TestFaultModelSiteSets checks the model boundary on unprotected runs:
// DataSlice strikes never land in the address/control slice; FullSite
// eventually does.
func TestFaultModelSiteSets(t *testing.T) {
	p := isa.MustParse("k", saxpyLoopSrc) // uninstrumented: observe-only
	run := func(model FaultModel, arm, seed int64) (*Injector, error) {
		d := testDevice(t)
		setupSaxpy(d, 256)
		inj := NewCampaignInjector(NewSites(p), []int64{arm}, 0, model, seed)
		hooks := &gpu.Hooks{OnExecuted: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
			inj.Observe(d, sm, w, pc)
		}}
		_, err := d.Run(saxpyLaunch(p, 256), hooks)
		return inj, err
	}
	// The struck instruction is a deterministic function of the arm cycle
	// (the seed only varies lane/bit/delay), so sweep arms to cover
	// different instructions.
	sawExcluded := false
	for arm := int64(10); arm <= 200; arm += 10 {
		inj, err := run(DataSlice, arm, arm)
		if err != nil {
			// A data-slice strike cannot corrupt an address; the
			// unprotected run must still complete.
			t.Fatalf("arm %d: data-slice run failed: %v (%s)", arm, err, inj.Description)
		}
		if inj.ExcludedStrikes() != 0 {
			t.Fatalf("arm %d: data-slice strike hit the excluded set: %s", arm, inj.Description)
		}
		// Full-site strikes may legitimately crash the run (a corrupted
		// address faults a load) — that is the DUE outcome the model
		// exists to measure.
		if inj, _ := run(FullSite, arm, arm); inj.ExcludedStrikes() > 0 {
			sawExcluded = true
		}
	}
	if !sawExcluded {
		t.Fatal("full-site model never struck the address/control slice across the arm sweep")
	}
}

// TestFalsePositiveWithExtendedSections drives spurious sensor
// detections into a kernel running under an extended section: the
// collective pending snapshots must be flushed by the recovery and the
// re-executed, re-verified run still produce a correct reduction.
func TestFalsePositiveWithExtendedSections(t *testing.T) {
	p, res, _ := compile(t, reductionSrc, schemeRename, true)
	if len(res.Sections) == 0 {
		t.Fatal("expected an extended section in the reduction kernel")
	}
	for _, fps := range [][]int64{{60}, {40, 90, 140}} {
		d := testDevice(t)
		for i := 0; i < 128; i++ {
			d.Mem.Words()[i] = 1
		}
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
		c.Inj = &Injector{FalsePositives: fps}
		l := &gpu.Launch{
			Prog:   p,
			Grid:   isa.Dim3{X: 2},
			Block:  isa.Dim3{X: 64},
			Params: []uint32{0, 512},
		}
		if _, err := d.Run(l, c.Hooks()); err != nil {
			t.Fatalf("fps %v: %v", fps, err)
		}
		if c.Stats.Recoveries != int64(len(fps)) {
			t.Fatalf("fps %v: recoveries = %d, want %d", fps, c.Stats.Recoveries, len(fps))
		}
		if _, _, _, _, pending, _ := ImageState(c); pending != 0 || c.npending != 0 {
			t.Fatalf("fps %v: %d pending section snapshots leaked (%d counted)", fps, pending, c.npending)
		}
		for b := 0; b < 2; b++ {
			if got := d.Mem.Words()[128+b]; got != 64 {
				t.Fatalf("fps %v: block %d sum = %d, want 64", fps, b, got)
			}
		}
	}
}

// TestStrikeAndFalsePositiveSameCycle pins the report count when a
// strike's detection and a spurious report fall in one cycle: two
// reports, so two recoveries, not one.
func TestStrikeAndFalsePositiveSameCycle(t *testing.T) {
	inj := &Injector{Strikes: []Strike{{Injected: true, detectAt: 50}}, next: 1, FalsePositives: []int64{50}}
	for _, tc := range []struct {
		cyc  int64
		want int
	}{{49, 0}, {50, 2}, {51, 0}} {
		if got := inj.Reports(tc.cyc); got != tc.want {
			t.Fatalf("Reports(%d) = %d, want %d", tc.cyc, got, tc.want)
		}
	}
	if !inj.Detected || inj.DetectedAt != 50 || inj.Detections != 1 {
		t.Fatalf("strike not detected at 50: detected=%v at %d, %d detections", inj.Detected, inj.DetectedAt, inj.Detections)
	}

	// The same coincidence in a run: the strike's detection cycle,
	// learned from a run without false positives, also gets a spurious
	// report.
	const n = 256
	p, res, _ := compile(t, saxpyLoopSrc, schemeRename, false)
	run := func(fps []int64) *Controller {
		d := testDevice(t)
		setupSaxpy(d, n)
		c := NewController(Mode{WCDL: 20, UseRBQ: true, Sections: res.Sections})
		c.Inj = NewInjector(NewSites(p), 100, 20, 3)
		c.Inj.FalsePositives = fps
		if _, err := d.Run(saxpyLaunch(p, n), c.Hooks()); err != nil {
			t.Fatal(err)
		}
		checkSaxpy(t, d, n, fmt.Sprintf("false positives %v", fps))
		return c
	}
	c := run(nil)
	if !c.Inj.Detected || c.Stats.Recoveries != 1 {
		t.Fatalf("strike alone: detected=%v, %d recoveries, want 1", c.Inj.Detected, c.Stats.Recoveries)
	}
	at := c.Inj.DetectedAt
	c = run([]int64{at})
	if c.Inj.DetectedAt != at || c.Stats.Recoveries != 2 {
		t.Fatalf("strike and false positive at cycle %d: detected at %d, %d recoveries, want 2", at, c.Inj.DetectedAt, c.Stats.Recoveries)
	}
}
