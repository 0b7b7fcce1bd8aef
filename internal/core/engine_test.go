package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flame/internal/flame"
	"flame/internal/gpu"
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
// one Engine (pooled device, restored memory, shared compilation, and a
// start from its golden cursor paused at each trial's first arm cycle)
// produces results deep-equal to fresh-device trials run from cycle 0
// (freshTrial), across every scheme, both fault models, double strikes
// and multi-launch applications — including Hang and DUE trials, whose
// partial state the next trial on the pooled device must not observe.
// The engine sees each case's trials in ascending, descending, shuffled
// and repeated first-arm order, so its cursor moves forward, restarts
// from cycle 0 and pauses twice at one cycle; arms fall across and past
// the main launch, and a panicking trial is followed by a normal one.
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
	boom := hookObserver{&gpu.Hooks{OnExecuted: func(*gpu.Device, *gpu.SM, *gpu.Warp, int) {
		panic("deliberate trial panic")
	}}}
	started := map[Outcome]int{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := GoldenRun(cfg, tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			// Trial i arms its first strike at firstArms[i]: a spread over
			// the window, and the cycles around the main launch's end.
			firstArms := []int64{g.MainCycles - 1, g.MainCycles, g.MainCycles + 1, g.Window + 7}
			for i := int64(0); i < 24; i++ {
				firstArms = append(firstArms, (i*g.Window)/24)
			}
			specs := make([]TrialSpec, len(firstArms))
			want := make([]*TrialResult, len(firstArms))
			for i, arm := range firstArms {
				arms := []int64{arm}
				for k := 1; k < tc.strikes; k++ {
					arms = append(arms, arm+int64(k)*g.Window/7)
				}
				specs[i] = TrialSpec{
					Arms:      arms,
					Model:     tc.model,
					Seed:      int64(i)*2654435761 + 17,
					MaxCycles: g.HangBudget(0),
				}
				want[i] = freshTrial(cfg, tc.spec, g, specs[i])
			}
			asc := make([]int, len(firstArms))
			for i := range asc {
				asc[i] = i
			}
			slices.SortStableFunc(asc, func(a, b int) int { return cmp.Compare(firstArms[a], firstArms[b]) })
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			shuffled := slices.Clone(asc)
			rand.New(rand.NewSource(int64(len(tc.name)))).Shuffle(len(shuffled), func(a, b int) {
				shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
			})
			var repeated []int
			for _, i := range asc {
				repeated = append(repeated, i, i)
			}

			eng := NewEngine(cfg)
			var wantResumed int64
			for _, order := range []struct {
				name string
				idx  []int
			}{{"ascending", asc}, {"descending", desc}, {"shuffled", shuffled}, {"repeated", repeated}} {
				for k, i := range order.idx {
					if k == len(order.idx)/2 {
						// A trial that panics after its start, then a normal one.
						ts := TrialSpec{Arms: []int64{g.MainCycles / 3}, Seed: 5, MaxCycles: g.HangBudget(0), Observer: boom}
						if tr := eng.RunTrial(tc.spec, g, ts); tr.Outcome != OutcomeInternal {
							t.Fatalf("%s: panicking trial: outcome=%v err=%q", order.name, tr.Outcome, tr.Err)
						}
						wantResumed += ts.prefixEnd(g)
					}
					got := eng.RunTrial(tc.spec, g, specs[i])
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("%s trial %d (arms %v) diverges:\n fresh: %+v\npooled: %+v", order.name, i, specs[i].Arms, want[i], got)
					}
					wantResumed += specs[i].prefixEnd(g)
					if specs[i].prefixEnd(g) > 0 {
						started[got.Outcome]++
					}
				}
			}
			st := eng.Stats()
			if st.ResumedCycles != wantResumed || st.PrefixCycles != 0 {
				t.Errorf("engine resumed %d cycles (want %d) and simulated %d prefix cycles (want 0)",
					st.ResumedCycles, wantResumed, st.PrefixCycles)
			}
		})
	}
	for _, o := range []Outcome{OutcomeNoInjection, OutcomeMasked, OutcomeRecovered, OutcomeSDC, OutcomeDUE, OutcomeHang} {
		if started[o] == 0 {
			t.Errorf("no cursor-started %v trial: starting there is not checked (%v)", o, started)
		}
	}
}
