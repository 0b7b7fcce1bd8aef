// Package campaign is the statistical fault-injection campaign engine:
// it runs thousands of classified injection trials across a workload
// suite on a pool of worker goroutines — each worker reusing pooled
// devices through a core.Engine — and aggregates Masked / Recovered /
// SDC / DUE / Hang counts into per-benchmark and fleet-wide coverage
// rates with Wilson confidence intervals.
//
// Every trial's randomness derives from the campaign seed, the
// benchmark name and the trial index via SplitMix64, so the report is
// bit-identical regardless of worker count or scheduling order — and,
// through the Shard/TrialSpec API, regardless of whether the trials ran
// in one process or were sharded across worker processes by the
// distributed coordinator (internal/dist).
//
// One function, assemble, builds every Report: from a campaign's set-up
// records and its trials, which Run and RunStratified hold in memory
// and ReplayIntegrity parses from an event stream (a resumed run, the
// distributed merge).
package campaign

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// ErrStopped is returned by Run — alongside a valid partial report —
// when Config.Stop asked the campaign to wind down before every trial
// ran. In-flight trials finish and are included; the event stream (if
// any) is complete for everything that ran, so the campaign is
// resumable from it.
var ErrStopped = errors.New("campaign: stopped before completion")

// Config describes a campaign.
type Config struct {
	// Arch is the GPU configuration trials run on.
	Arch gpu.Config
	// Opt selects the resilience scheme under test. Baseline is allowed:
	// it measures raw masking with no protection.
	Opt core.Options
	// Specs are the workloads; each receives Trials trials.
	Specs []*core.KernelSpec
	// Trials is the number of injection trials per workload.
	Trials int
	// Parallel is the worker-goroutine count (default GOMAXPROCS). The
	// report does not depend on it.
	Parallel int
	// Seed roots every trial's deterministic randomness.
	Seed uint64
	// Model selects the injectable site set (data slice or full site).
	Model flame.FaultModel
	// StrikesPerTrial arms this many strikes per trial (default 1).
	StrikesPerTrial int
	// HangBudgetMult scales the per-trial cycle budget as a multiple of
	// the fault-free window (default 8).
	HangBudgetMult int64
	// TrialTimeout, when positive, bounds each trial's wall-clock time;
	// a fired timeout classifies the trial as Hang. It is a last-resort
	// watchdog (a fired timeout depends on host speed, not the trial's
	// randomness), so size it generously when reports must be
	// bit-identical across hosts.
	TrialTimeout time.Duration
	// Events, when set, receives the campaign's JSONL progress stream
	// (see stream.go): campaign_start, golden, trial_start, trial,
	// progress and campaign_done records, one JSON object per line.
	// Replay rebuilds the Report from a finished stream. Event order
	// across workers is nondeterministic; the replayed report is not.
	Events io.Writer
	// Stop, when non-nil, makes the campaign interruptible: once the
	// channel is closed no further trials are dispatched, in-flight
	// trials finish, and Run returns the partial report with ErrStopped.
	Stop <-chan struct{}
	// Skip, when non-nil, excludes trials from the run (resume support:
	// a caller replaying a prior event stream skips what already ran).
	// Skipped trials are absent from the report and the event stream,
	// exactly as if the campaign had been stopped before reaching them.
	Skip func(bench string, trial int) bool
	// Prune enables the pre-classification pruner (core.PruneIndex):
	// trials whose armed strikes provably cannot alter observable state
	// are counted Masked/NoInjection without simulation, bit-identically
	// to what simulation would produce. Per-benchmark soundness gates
	// fall back to full simulation automatically; the report gains
	// pruned_masked / pruned_no_injection counters but is otherwise
	// identical to an unpruned run.
	Prune bool
	// RestoreStats, when non-nil, receives the summed restore/diff page
	// counters of every worker engine after the campaign finishes. The
	// DirtyPages and DiffPages sums are deterministic (per-trial work
	// is); RestoredPages depends on worker count and scheduling (each
	// engine's first restore copies the full image, and later restores
	// copy whatever the previous trial on that engine dirtied).
	RestoreStats *core.RestoreStats

	// Trace attaches a propagation tracer (telemetry.Tracer) to every
	// simulated trial: trial events gain a prop record (strike-to-store
	// propagation depth, detection latency, SDC memory fingerprints)
	// and the report gains per-benchmark propagation sections. Outcomes,
	// counters and coverage are unchanged — stripping the propagation
	// sections yields a report byte-identical to an untraced run.
	// Pruned trials skip simulation and therefore carry no record.
	Trace bool

	// Stratify switches the campaign to the stratified sampler
	// (RunStratified): Trials becomes a per-benchmark budget, trials are
	// drawn from enumerated (kernel, section, opcode-class) site strata
	// with Neyman reallocation between rounds, and the report gains a
	// per-benchmark sampling breakdown. Single-strike only.
	Stratify bool
	// CITarget, when positive, stops a stratified benchmark early once
	// the stratified 95% CI half-widths of both its SDC and DUE rates
	// drop below it. Zero runs the full budget. The distributed
	// coordinator applies the same target to its uniform grid, cancelling
	// a converged benchmark's un-leased shards.
	CITarget float64
	// Pilot is the per-stratum trial count of the stratified sampler's
	// uniform pilot round (default 8, minimum 2).
	Pilot int
	// StrataKey selects the stratified sampler's stratification key
	// (core.ParseStrataKey spellings; "" is the default section-class
	// key, "liveness" adds the static liveness-class dimension). The
	// key string feeds every stratum's seed stream, so different keys
	// draw different — equally deterministic — trial grids.
	StrataKey string
}

// Prepare runs the campaign's set-up: every benchmark's fault-free
// golden run on GOMAXPROCS workers, recording the pruning oracle under
// Prune and, under Stratify, the site strata of the StrataKey. The
// in-process pool and every distributed replica call it, so they all
// prune and stratify the same trials.
func (cfg *Config) Prepare() ([]core.Setup, error) {
	want := core.Want{Prune: cfg.Prune}
	if cfg.Stratify {
		key, err := core.ParseStrataKey(cfg.StrataKey)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		want.Strata, want.Model, want.Key = true, cfg.Model, key
	}
	set, err := core.PrepareAll(cfg.Arch, cfg.Specs, cfg.Opt, want)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return set, nil
}

// Validate rejects a campaign that cannot run: no workloads, a
// workload listed twice (streams, shards and reports key trials by
// benchmark name), a non-positive trial count, a CI target outside
// [0, 0.5) — a Wilson half-width is below 0.5 once a single trial has
// run, so a larger target would stop every benchmark after its first
// round — and, for the stratified sampler, multi-strike trials or trial
// skipping. Run, RunStratified and the distributed service's campaign
// description all call it.
func (cfg *Config) Validate() error {
	seen := map[string]bool{}
	for _, sp := range cfg.Specs {
		if seen[sp.Name] {
			return fmt.Errorf("campaign: benchmark %s listed twice", sp.Name)
		}
		seen[sp.Name] = true
	}
	switch {
	case len(cfg.Specs) == 0:
		return fmt.Errorf("campaign: no workloads")
	case cfg.Trials <= 0:
		return fmt.Errorf("campaign: trials must be positive")
	case !(cfg.CITarget >= 0 && cfg.CITarget < 0.5):
		return fmt.Errorf("campaign: ci_target %v out of range [0, 0.5)", cfg.CITarget)
	case cfg.Stratify && cfg.StrikesPerTrial > 1:
		return fmt.Errorf("campaign: stratified sampling is single-strike (strikes=%d)", cfg.StrikesPerTrial)
	case cfg.Stratify && cfg.Skip != nil:
		return fmt.Errorf("campaign: stratified sampling does not support trial skipping (-resume)")
	}
	return nil
}

// Run executes the campaign and aggregates the report. A Config with
// Stratify set is routed to the stratified sampler.
func Run(cfg Config) (*Report, error) {
	if cfg.Stratify {
		return RunStratified(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Plan the trial grid up front, honouring Skip, in (workload, trial)
	// order: results land in plan order, and stopped or skipped trials
	// stay out of the report.
	plan := make([]trial, 0, len(cfg.Specs)*cfg.Trials)
	for b, spec := range cfg.Specs {
		for t := 0; t < cfg.Trials; t++ {
			if cfg.Skip == nil || !cfg.Skip(spec.Name, t) {
				plan = append(plan, trial{b: b, t: t})
			}
		}
	}

	// Fault-free golden runs, one per workload, each recording its
	// pruning oracle as it runs. A benchmark that fails a soundness gate
	// gets a disabled index and falls back to simulation.
	p, err := newPool(&cfg, len(plan))
	if err != nil {
		return nil, err
	}
	ran := make([]trialRecord, len(plan))
	n := p.run(plan, ran)
	return p.close(ran[:n], n < len(plan))
}

// TrialSpec derives trial t's full specification — strike arm cycles,
// injector seed, cycle budget and wall-clock timeout — for a benchmark
// of this campaign. The derivation depends only on (campaign seed,
// benchmark name, t), so trial t is the same trial no matter which
// worker goroutine, worker process, or shard runs it: this is what lets
// the distributed coordinator merge shard streams into a report
// byte-identical to the single-process run.
func (cfg *Config) TrialSpec(g *core.Golden, bench string, t int) core.TrialSpec {
	strikes := cfg.StrikesPerTrial
	if strikes <= 0 {
		strikes = 1
	}
	rng := rand.New(rand.NewSource(trialSeed(benchSeed(cfg.Seed, bench), t)))
	span := g.ArmSpan()
	arms := make([]int64, strikes)
	for i := range arms {
		arms[i] = rng.Int63n(span)
	}
	sort.Slice(arms, func(i, j int) bool { return arms[i] < arms[j] })
	return core.TrialSpec{
		Arms:      arms,
		Model:     cfg.Model,
		Seed:      rng.Int63(),
		MaxCycles: g.HangBudget(cfg.HangBudgetMult),
		Timeout:   cfg.TrialTimeout,
	}
}
