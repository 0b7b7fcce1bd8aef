// Trial engine: the single-injection building block the statistical
// fault-injection campaigns are made of. A trial simulates the workload
// with one or more strikes armed and classifies the outcome against a
// fault-free golden run using the standard taxonomy — Masked,
// Detected+Recovered, SDC, DUE, Hang — by diffing final global memory
// rather than trusting the spec's (often sampled) Validate function.

package core

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"flame/internal/flame"
	"flame/internal/gpu"
)

// Outcome classifies one fault-injection trial.
type Outcome uint8

const (
	// OutcomeNoInjection: the injector was armed but no eligible
	// instruction executed after the arm cycle (late arms on short
	// kernels). The trial says nothing about coverage.
	OutcomeNoInjection Outcome = iota
	// OutcomeMasked: state was corrupted, no detection fired, and the
	// final memory still matches the golden run bit-for-bit (the
	// corruption was overwritten, dead, or logically masked).
	OutcomeMasked
	// OutcomeRecovered: the corruption was detected, recovery ran, and
	// the final memory matches the golden run bit-for-bit.
	OutcomeRecovered
	// OutcomeSDC: the run completed but final memory differs from the
	// golden run — a silent data corruption (even if detection fired:
	// a recovery that does not restore correct state is still an SDC).
	OutcomeSDC
	// OutcomeDUE: the simulation failed outright (bad address, fault in
	// launch machinery) — a detected unrecoverable error.
	OutcomeDUE
	// OutcomeHang: the run exhausted its cycle budget (corrupted control
	// flow livelocked the kernel), or tripped the wall-clock watchdog.
	OutcomeHang
	// OutcomeInternal: the trial infrastructure itself failed — a panic
	// inside the simulator or a scheme controller was recovered at the
	// trial boundary. It says nothing about fault coverage (the report
	// excludes it from the injected denominator) but is counted and
	// exemplified so a buggy build cannot silently eat trials.
	OutcomeInternal

	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	OutcomeNoInjection: "no-injection",
	OutcomeMasked:      "masked",
	OutcomeRecovered:   "recovered",
	OutcomeSDC:         "sdc",
	OutcomeDUE:         "due",
	OutcomeHang:        "hang",
	OutcomeInternal:    "internal",
}

// String returns the outcome's report name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Golden is the fault-free reference a campaign classifies trials
// against: the compiled program, its execution window, and the final
// global memory of a clean run.
//
// A Golden is immutable after Prepare returns and is shared read-only
// by every pooled Engine in a campaign (one golden, many workers). In
// particular InitMem and Mem must never be written: the dirty-page
// restore path copies from InitMem on every trial, so a stray write
// would silently corrupt every subsequent trial on every worker.
// TestGoldenSharedAcrossEnginesImmutable exercises this under the race
// detector.
type Golden struct {
	Comp *Compiled
	// StepComps are the follow-on Steps compiled once with the same
	// options, in spec order (trials reuse them instead of recompiling).
	StepComps []*Compiled
	// Window is the fault-free cycle count across all launches.
	Window int64
	// MainCycles is the main launch's own cycle count (Window also
	// counts the Steps).
	MainCycles int64
	// InitMem is the global-memory image after host setup, before any
	// launch; pooled-device trials restore it instead of re-running
	// spec.Setup.
	InitMem []uint32
	// Mem is the fault-free final global memory.
	Mem []uint32
	// MaxDelay is the scheme's sensor detection delay bound (WCDL for
	// sensor schemes, 0 = immediate for duplication/hybrid/baseline).
	MaxDelay int
	// diffPages is the page bitmap (gpu.PageWords-word pages) of pages
	// where Mem differs from InitMem, precomputed once so per-trial
	// classification can diff only candidate pages: a page untouched by
	// the trial AND equal between InitMem and Mem cannot diverge.
	diffPages []uint64
}

// GoldenRun compiles the spec for the scheme and performs the fault-free
// reference run, validating its output. Baseline is allowed: an
// unprotected golden run anchors masking campaigns. It is Prepare
// recording nothing else.
func GoldenRun(cfg gpu.Config, spec *KernelSpec, opt Options) (*Golden, error) {
	s, err := Prepare(cfg, spec, opt, Want{})
	return s.Golden, err
}

// diffPageBitmap returns the bitmap of pages (gpu.PageWords words each)
// where the two images differ. Images of unequal length never occur for
// a golden (both come from the same device geometry); the shorter bound
// keeps the helper total.
func diffPageBitmap(a, b []uint32) []uint64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	bm := make([]uint64, (((n+gpu.PageWords-1)/gpu.PageWords)+63)/64)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			p := i / gpu.PageWords
			bm[p/64] |= 1 << uint(p%64)
			// Skip to the next page: one differing word already marks it.
			i = (p+1)*gpu.PageWords - 1
		}
	}
	return bm
}

// Fingerprint hashes the golden's memory images (FNV-1a). Campaign
// tests snapshot it before running trials and assert it unchanged
// after, pinning the shared-Golden immutability contract.
func (g *Golden) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range g.InitMem {
		h = (h ^ uint64(w)) * prime
	}
	for _, w := range g.Mem {
		h = (h ^ uint64(w)) * prime
	}
	return h
}

// HangBudget returns the per-launch cycle budget for trials against this
// golden run: mult times the fault-free window plus slack for recovery
// re-execution (mult <= 0 selects the default of 8). Corrupted control
// flow then classifies as Hang after milliseconds instead of stalling a
// campaign worker for the 200M-cycle device guard.
func (g *Golden) HangBudget(mult int64) int64 {
	if mult <= 0 {
		mult = 8
	}
	return mult*g.Window + 10_000
}

// TrialSpec describes one injection trial.
type TrialSpec struct {
	// Arms are the strike arm cycles, ascending; most trials use one.
	Arms []int64
	// Model selects the injectable site set (data slice or full site).
	Model flame.FaultModel
	// Seed drives the injector's lane/bit/delay choices.
	Seed int64
	// MaxCycles bounds each launch (the hang watchdog); zero keeps the
	// device default. Use Golden.HangBudget.
	MaxCycles int64
	// Timeout, when positive, bounds the trial's wall-clock time: a
	// launch still running after it aborts with gpu.ErrWallClock and the
	// trial classifies as Hang. It is the last-resort guard distributed
	// workers arm so a simulator livelock (or a pathological budget)
	// cannot wedge a worker process; campaigns that need bit-identical
	// reports should size it generously — a fired timeout depends on
	// host speed, not on the trial's randomness.
	Timeout time.Duration
	// Hooks are extra observer hooks combined after the scheme's own on
	// every launch of the trial (main kernel and Steps alike).
	Hooks *gpu.Hooks
	// Observer, when non-nil, watches the trial (propagation tracing /
	// fingerprinting; see TrialObserver). Set by the campaign runner,
	// never by Config.TrialSpec — the spec derivation stays a pure
	// function of (seed, benchmark, trial).
	Observer TrialObserver
}

// TrialResult is one classified trial.
type TrialResult struct {
	Outcome Outcome
	// Strikes counts the strikes that corrupted state.
	Strikes int
	// ExcludedStrikes counts fired strikes in the address/control slice
	// (nonzero only under the full-site fault model).
	ExcludedStrikes int
	// Detected reports that every strike was detected.
	Detected bool
	// Detections counts detected strikes.
	Detections int
	// Recoveries counts controller recoveries performed.
	Recoveries int64
	// Cycles is the trial's simulated cycle count (partial for DUE/Hang).
	Cycles int64
	// Err preserves the failure text for DUE/Hang trials.
	Err string
	// Description says what the first strike corrupted.
	Description string
	// Pruned marks a trial classified by PruneIndex.PruneTrial without
	// simulation (the result is bit-identical to what simulation would
	// have produced; the flag keeps accelerated campaigns auditable).
	// Set by the campaign layer, never by PruneTrial itself.
	Pruned bool `json:",omitempty"`
	// Stratum is the injection-site stratum key the trial was drawn
	// from (stratified campaigns only; empty on the uniform grid).
	// Set by the campaign sampler, never by the engine.
	Stratum string `json:",omitempty"`
	// Prop is the propagation/fingerprint record a TrialObserver
	// attached (nil when no observer ran — the untraced result encodes
	// identically to the pre-tracing format).
	Prop *PropRecord `json:",omitempty"`
}

// stopFunc builds the launch Stop predicate for the trial's wall-clock
// timeout (nil when none is set). The deadline is anchored when the
// trial starts, not per launch, so multi-step workloads share one
// budget.
func (ts *TrialSpec) stopFunc() func() bool {
	if ts.Timeout <= 0 {
		return nil
	}
	deadline := time.Now().Add(ts.Timeout)
	return func() bool { return time.Now().After(deadline) }
}

// trialPanicResult fills a trial result for a recovered panic: the panic
// value and a bounded stack land in Err for local debugging, a
// single-line description in Description so reports can exemplify the
// failure, and whatever the injector managed to record is preserved.
func trialPanicResult(tr *TrialResult, inj *flame.Injector, r any) {
	stack := debug.Stack()
	if len(stack) > 4096 {
		stack = stack[:4096]
	}
	tr.Outcome = OutcomeInternal
	tr.Err = fmt.Sprintf("trial panic: %v\n%s", r, stack)
	tr.Description = fmt.Sprintf("trial panic: %v", r)
	tr.Strikes = inj.FiredStrikes()
	tr.ExcludedStrikes = inj.ExcludedStrikes()
}

// memDiff compares two final-memory images word-by-word and returns the
// byte address of the first divergence (little-endian within the word,
// matching the simulator's byte addressing) plus whether the images are
// equal. A length mismatch diverges at the first byte past the common
// prefix.
func memDiff(a, b []uint32) (byteAddr int64, equal bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return int64(i)*4 + int64(bits.TrailingZeros32(x)/8), false
		}
	}
	if len(a) != len(b) {
		return int64(n) * 4, false
	}
	return -1, true
}
