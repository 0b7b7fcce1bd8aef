package harness

import (
	"fmt"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/isa"
	"flame/internal/stats"
)

// SamplingBenchPerf records one benchmark's variance-reduction result
// from the stratified-sampling study: how many trials the adaptive
// stratified sampler needed to reach the precision the uniform grid
// bought with the full budget. EffectiveSpeedup is the statistical
// efficiency ratio (N_u * w_u^2) / (T_s * w_s^2): uniform budget times
// squared uniform half-width over stratified trials times squared
// stratified half-width — trials-to-equal-precision, not wall clock.
type SamplingBenchPerf struct {
	Benchmark string
	// StrataKey is the stratification key the stratified run used.
	StrataKey           string
	Budget              int
	UniformHalfWidth    float64
	StratifiedTrials    int
	StratifiedHalfWidth float64
	Rounds              int
	StopReason          string
	EffectiveSpeedup    float64
}

// samplingSpecs are the study's workloads under the unprotected
// Baseline scheme: a real memory-bound kernel (Triad), the
// restore-bound microbenchmark, and the stratification-bound
// microbenchmark below. The first two measure what stratification buys
// on workloads whose outcome structure does NOT align with the
// (section, opcode-class) key — the honest neutral case — while the
// third isolates the mechanism the way RestoreBound isolates the
// restore path.
func samplingSpecs() ([]*core.KernelSpec, error) {
	b, err := bench.ByName("Triad")
	if err != nil {
		return nil, err
	}
	return []*core.KernelSpec{b.Spec(), restoreBoundSpec(), stratBoundSpec()}, nil
}

// restoreBoundSpec is the restore-bound microbenchmark: 128 threads
// increment 128 contiguous words (one dirty page) of a 4 MB footprint
// (4096 pages), the worst case for a full-image restore. The live work
// is latency-free (the stored value is computed, not loaded), and the
// tail is a load whose value feeds only the never-read r10: its memory
// latency stretches the back of the execution window with cycles where
// every strike lands on a provably dead register.
func restoreBoundSpec() *core.KernelSpec {
	const src = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    add r8, r3, 1
	    st.global [r6], r8
	    ld.global r9, [r6]
	    mul r10, r9, 3
	    exit
	`
	const n = 2 * 64
	return &core.KernelSpec{
		Name:     "RestoreBound",
		Prog:     isa.MustParse("restorebound", src),
		Grid:     isa.Dim3{X: 2},
		Block:    isa.Dim3{X: 64},
		Params:   []uint32{0},
		MemBytes: 4 << 20,
		Validate: func(mem []uint32) error {
			for i := 0; i < n; i++ {
				if mem[i] != uint32(i+1) {
					return fmt.Errorf("mem[%d] = %d, want %d", i, mem[i], i+1)
				}
			}
			return nil
		},
	}
}

// stratBoundSpec is the stratification-bound microbenchmark: the
// injection-site space splits into near-deterministic strata that the
// (section, opcode-class) key separates exactly. The live integer
// chain and the store (alu/store strata) feed the validated output, so
// a strike there is an SDC with probability ~1; the long fp chain
// after the load squares a value that never reaches memory, so its
// stratum — which also owns the load's stall cycles, giving it most of
// the site weight — is masked with probability 1. Pooled, the SDC rate
// is mid-range and the uniform grid needs the whole budget; stratified,
// each stratum's variance is ~0 and Neyman allocation converges in a
// couple of rounds. This is the best case for variance reduction, not
// the typical one — Triad above is the control.
func stratBoundSpec() *core.KernelSpec {
	src := `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    add r7, r3, 5
	    st.global [r6], r7
	    ld.global r8, [r6]
	`
	for i := 0; i < 24; i++ {
		src += "	    fmul r9, r8, r8\n"
		src += "	    fmul r9, r9, r9\n"
	}
	src += "	    exit\n"
	const n = 2 * 64
	return &core.KernelSpec{
		Name:     "StratBound",
		Prog:     isa.MustParse("stratbound", src),
		Grid:     isa.Dim3{X: 2},
		Block:    isa.Dim3{X: 64},
		Params:   []uint32{0},
		MemBytes: 64 << 10,
		Validate: func(mem []uint32) error {
			for i := 0; i < n; i++ {
				if mem[i] != uint32(i+5) {
					return fmt.Errorf("mem[%d] = %d, want %d", i, mem[i], i+5)
				}
			}
			return nil
		},
	}
}

// SamplingBudget is the uniform-grid budget `flamebench -exp sampling`
// gives each workload, and the one SamplingStudy uses for a
// non-positive trials.
const SamplingBudget = 400

// SamplingStudy runs the variance-reduction experiment behind
// `flamebench -exp sampling`: for each workload, the uniform grid at
// the full budget fixes a precision target (the wider of the SDC and
// DUE Wilson 95% half-widths), then the stratified sampler runs with
// that target as its -ci-target and the same budget as a ceiling.
func SamplingStudy(cfg Config, trials int) ([]SamplingBenchPerf, error) {
	cfg.fill()
	if trials <= 0 {
		trials = SamplingBudget
	}
	specs, err := samplingSpecs()
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"benchmark", "key", "budget", "uniform ±", "strat trials", "strat ±", "rounds", "stop", "eff speedup",
	}}
	// Both stratification keys run against the same uniform-grid target:
	// the liveness key splits every (section, class) group by the static
	// interval class of the firing site, so the comparison is the key's
	// marginal variance reduction, benchmark by benchmark.
	keys := []core.StrataKey{core.StrataKeySectionClass, core.StrataKeyLiveness}
	var out []SamplingBenchPerf
	for _, spec := range specs {
		base := campaign.Config{
			Arch:   cfg.Arch,
			Opt:    core.Options{Scheme: core.Baseline},
			Specs:  []*core.KernelSpec{spec},
			Trials: trials,
			Seed:   7,
			Model:  flame.DataSlice,
		}
		urep, err := campaign.Run(base)
		if err != nil {
			return nil, err
		}
		ub := &urep.Benchmarks[0]
		wu := maxHalfWidth(ub.SDC, ub.DUE, ub.Injected)

		for _, key := range keys {
			scfg := base
			scfg.Stratify = true
			scfg.CITarget = wu
			if key != core.StrataKeySectionClass {
				scfg.StrataKey = string(key)
			}
			srep, err := campaign.Run(scfg)
			if err != nil {
				return nil, err
			}
			s := srep.Benchmarks[0].Sampling
			ws := s.SDCRate.HalfWidth()
			if d := s.DUERate.HalfWidth(); d > ws {
				ws = d
			}
			r := SamplingBenchPerf{
				Benchmark:           spec.Name,
				StrataKey:           string(key),
				Budget:              trials,
				UniformHalfWidth:    wu,
				StratifiedTrials:    s.TrialsUsed,
				StratifiedHalfWidth: ws,
				Rounds:              s.Rounds,
				StopReason:          s.StopReason,
			}
			if s.TrialsUsed > 0 && ws > 0 {
				r.EffectiveSpeedup = (float64(trials) * wu * wu) / (float64(s.TrialsUsed) * ws * ws)
			}
			out = append(out, r)
			t.Add(r.Benchmark, r.StrataKey, fmt.Sprintf("%d", r.Budget),
				fmt.Sprintf("%.4f", r.UniformHalfWidth),
				fmt.Sprintf("%d", r.StratifiedTrials),
				fmt.Sprintf("%.4f", r.StratifiedHalfWidth),
				fmt.Sprintf("%d", r.Rounds), r.StopReason,
				fmt.Sprintf("%.2fx", r.EffectiveSpeedup))
		}
	}
	cfg.printf("stratified sampling efficiency (scheme=Baseline model=data, target = uniform grid's half-width)\n%s", t.String())
	return out, nil
}

// maxHalfWidth is the wider Wilson 95% half-width of the two rates —
// the precision the stratified run must match on both fronts.
func maxHalfWidth(sdc, due, injected int) float64 {
	sLo, sHi := stats.Wilson95(sdc, injected)
	dLo, dHi := stats.Wilson95(due, injected)
	w := (sHi - sLo) / 2
	if d := (dHi - dLo) / 2; d > w {
		w = d
	}
	return w
}
