package core

import (
	"reflect"
	"testing"

	"flame/internal/flame"
	"flame/internal/isa"
)

// stepSpec returns a two-launch application (the main kernel doubles,
// the step adds one) so engine trials exercise precompiled StepComps.
func stepSpec() *KernelSpec {
	const mainSrc = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    ld.global r7, [r6]
	    add r8, r7, r7
	    st.global [r6], r8
	    exit
	`
	const stepSrc = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    ld.global r7, [r6]
	    add r8, r7, 1
	    st.global [r6], r8
	    exit
	`
	const n = 4 * 64
	return &KernelSpec{
		Name:     "twostep",
		Prog:     isa.MustParse("double", mainSrc),
		Grid:     isa.Dim3{X: 4},
		Block:    isa.Dim3{X: 64},
		Params:   []uint32{0},
		MemBytes: 1 << 12,
		Steps: []Step{{
			Prog: isa.MustParse("addone", stepSrc),
			Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64}, Params: []uint32{0},
		}},
		Setup: func(mem []uint32) {
			for i := 0; i < n; i++ {
				mem[i] = uint32(i)
			}
		},
		Validate: func(mem []uint32) error {
			for i := 0; i < n; i++ {
				if mem[i] != uint32(2*i+1) {
					return errAt(i, mem[i])
				}
			}
			return nil
		},
	}
}

type validationErr struct {
	idx int
	got uint32
}

func (e *validationErr) Error() string { return "bad output word" }

func errAt(i int, got uint32) error { return &validationErr{i, got} }

// TestEngineTrialMatchesFreshDevice is the pooling-equivalence contract:
// a sequence of trials on one Engine (pooled device, restored memory,
// shared compilation, and a start from the golden's resume image for
// every trial arming at or after its cycle) produces results deep-equal
// to fresh-device trials run from cycle 0 (freshTrial), across every
// scheme, both fault models, double strikes and multi-launch
// applications — including Hang and DUE trials, whose partial state the
// next trial on the pooled device must not observe. Besides a spread of
// arm cycles, each case arms one cycle before the image cycle, at it
// and one cycle after it.
func TestEngineTrialMatchesFreshDevice(t *testing.T) {
	cfg := testCfg()
	type tcase struct {
		name    string
		spec    *KernelSpec
		opt     Options
		model   flame.FaultModel
		strikes int
	}
	var cases []tcase
	for _, s := range Schemes() {
		cases = append(cases, tcase{"saxpy-" + s.FlagName() + "-data", saxpySpec(),
			Options{Scheme: s, WCDL: 20, ExtendRegions: true}, flame.DataSlice, 1})
	}
	cases = append(cases,
		tcase{"saxpy-flame-full-2strikes", saxpySpec(), FlameOptions(), flame.FullSite, 2},
		tcase{"spin-baseline-full", spinSpec(), Options{Scheme: Baseline}, flame.FullSite, 1},
		tcase{"spin-baseline-full-2strikes", spinSpec(), Options{Scheme: Baseline}, flame.FullSite, 2},
		tcase{"twostep-flame-full", stepSpec(), FlameOptions(), flame.FullSite, 1},
	)
	totalResumed := map[Outcome]int{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := GoldenRun(cfg, tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			c := g.ImageCycle(cfg, tc.spec)
			if c <= 0 {
				t.Fatalf("golden has no resume image (cycle %d)", c)
			}
			firstArms := []int64{c - 1, c, c + 1}
			for i := int64(0); i < 24; i++ {
				firstArms = append(firstArms, (i*g.Window)/30)
			}
			eng := NewEngine(cfg)
			outcomes, resumed := map[Outcome]int{}, map[Outcome]int{}
			for i, arm := range firstArms {
				arms := []int64{arm}
				for k := 1; k < tc.strikes; k++ {
					arms = append(arms, arm+int64(k)*g.Window/7)
				}
				ts := TrialSpec{
					Arms:      arms,
					Model:     tc.model,
					Seed:      int64(i)*2654435761 + 17,
					MaxCycles: g.HangBudget(0),
				}
				fresh := freshTrial(cfg, tc.spec, g, ts)
				pooled := eng.RunTrial(tc.spec, g, ts)
				if !reflect.DeepEqual(fresh, pooled) {
					t.Fatalf("trial %d (arms %v, image cycle %d) diverges:\n fresh: %+v\npooled: %+v", i, arms, c, fresh, pooled)
				}
				outcomes[fresh.Outcome]++
				if arm >= c {
					resumed[fresh.Outcome]++
					totalResumed[fresh.Outcome]++
				}
			}
			if got, want := eng.Stats().ResumedCycles, c*int64(len(firstArms)-sumValues(outcomes)+sumValues(resumed)); got != want {
				t.Errorf("engine resumed %d cycles, want %d (%d trials from cycle %d)", got, want, sumValues(resumed), c)
			}
			t.Logf("%s outcomes: %v, resumed: %v, image cycle %d of %d", tc.name, outcomes, resumed, c, g.MainCycles)
		})
	}
	for _, o := range []Outcome{OutcomeRecovered, OutcomeSDC, OutcomeDUE, OutcomeHang} {
		if totalResumed[o] == 0 {
			t.Errorf("no resumed %v trial: resuming is not checked there (%v)", o, totalResumed)
		}
	}
}

func sumValues(m map[Outcome]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// TestEngineTrialSkipEquivalence: pooled trials with event-driven cycle
// skipping disabled match trials with it enabled, field for field —
// the campaign-level statement of the tentpole invariant.
func TestEngineTrialSkipEquivalence(t *testing.T) {
	spec := saxpySpec()
	for _, opt := range []Options{FlameOptions(), {Scheme: Baseline}} {
		cfgFast := testCfg()
		cfgNaive := testCfg()
		cfgNaive.NoCycleSkip = true
		gFast, err := GoldenRun(cfgFast, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		gNaive, err := GoldenRun(cfgNaive, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gFast.Window != gNaive.Window {
			t.Fatalf("%s: golden window %d (skip) != %d (naive)",
				opt.Scheme, gFast.Window, gNaive.Window)
		}
		engFast, engNaive := NewEngine(cfgFast), NewEngine(cfgNaive)
		for i := int64(0); i < 12; i++ {
			ts := TrialSpec{
				Arms:      []int64{(i * gFast.Window) / 15},
				Seed:      i + 99,
				MaxCycles: gFast.HangBudget(0),
			}
			fast := engFast.RunTrial(spec, gFast, ts)
			naive := engNaive.RunTrial(spec, gNaive, ts)
			if !reflect.DeepEqual(fast, naive) {
				t.Fatalf("%s trial %d diverges with skipping off:\n  fast: %+v\n naive: %+v",
					opt.Scheme, i, fast, naive)
			}
		}
	}
}
