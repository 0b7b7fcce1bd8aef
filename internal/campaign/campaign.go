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
package campaign

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/obs"
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
	// NoCOW disables page-granular golden restore/diff in the worker
	// engines (full memory copy and full scan per trial). Reports are
	// byte-identical either way; this is the escape hatch and the
	// baseline for throughput comparisons.
	NoCOW bool
	// RestoreStats, when non-nil, receives the summed restore/diff page
	// counters of every worker engine after the campaign finishes. The
	// DirtyPages and DiffPages sums are deterministic (per-trial work
	// is); RestoredPages depends on worker count and scheduling (each
	// engine's first restore copies the full image, and later restores
	// copy whatever the previous trial on that engine dirtied).
	RestoreStats *core.RestoreStats

	// Trace attaches a propagation tracer (internal/obs) to every
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

type job struct{ b, t int }

// setup is a campaign's per-benchmark set-up, in spec order.
type setup struct {
	goldens  []*core.Golden
	prune    []*core.PruneIndex // nil entries unless Config.Prune
	pruneOff []string           // why pruning is off ("" when live or not asked for)
	strata   []*flame.StrataMap // nil unless stratified
}

// prepare runs every benchmark's golden run on GOMAXPROCS workers,
// recording the pruning oracle (under Config.Prune) and whatever else
// want asks for while it runs.
func (cfg *Config) prepare(want core.Want) (*setup, error) {
	want.Prune = cfg.Prune
	ss, err := core.PrepareAll(cfg.Arch, cfg.Specs, cfg.Opt, want)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	n := len(ss)
	set := &setup{
		goldens:  make([]*core.Golden, n),
		prune:    make([]*core.PruneIndex, n),
		pruneOff: make([]string, n),
	}
	if want.Strata {
		set.strata = make([]*flame.StrataMap, n)
	}
	for i, s := range ss {
		set.goldens[i], set.prune[i] = s.Golden, s.Prune
		if s.Prune != nil {
			set.pruneOff[i] = s.Prune.Disabled()
		}
		if set.strata != nil {
			set.strata[i] = s.Strata
		}
	}
	return set, nil
}

// emit writes the set-up event lines after set-up has finished, in the
// order the serial set-up wrote them: campaign start, every golden,
// every strata enumeration, then every benchmark whose pruning is off.
func (set *setup) emit(str *streamer, cfg *Config, parallel int) {
	if str == nil {
		return
	}
	str.campaignStart(cfg, parallel, set.goldens[0].Comp.Opt.WCDL)
	for i, spec := range cfg.Specs {
		str.golden(spec.Name, set.goldens[i].Window)
	}
	for i, m := range set.strata {
		info := make([]stratumInfo, len(m.Strata))
		for j := range m.Strata {
			info[j] = stratumInfo{Key: m.Strata[j].Key(), Sites: m.Strata[j].Sites}
		}
		str.strata(cfg.Specs[i].Name, m.Span, m.NoInjectionSites, info)
	}
	for i, spec := range cfg.Specs {
		if reason := set.pruneOff[i]; reason != "" {
			str.pruneDisabled(spec.Name, reason)
		}
	}
}

// Run executes the campaign and aggregates the report. A Config with
// Stratify set is routed to the stratified sampler.
func Run(cfg Config) (*Report, error) {
	if cfg.Stratify {
		return RunStratified(cfg)
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("campaign: no workloads")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("campaign: trials must be positive")
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	// Plan the trial grid up front, honouring Skip: results land in a
	// fixed [workload][trial] grid so aggregation order — and therefore
	// the report — is independent of worker interleaving, and the ran
	// mask keeps stopped or skipped trials out of the aggregate.
	plan := make([]job, 0, len(cfg.Specs)*cfg.Trials)
	results := make([][]core.TrialResult, len(cfg.Specs))
	ran := make([][]bool, len(cfg.Specs))
	for b, spec := range cfg.Specs {
		results[b] = make([]core.TrialResult, cfg.Trials)
		ran[b] = make([]bool, cfg.Trials)
		for t := 0; t < cfg.Trials; t++ {
			if cfg.Skip != nil && cfg.Skip(spec.Name, t) {
				continue
			}
			plan = append(plan, job{b, t})
		}
	}

	var str *streamer
	if cfg.Events != nil {
		str = newStreamer(cfg.Events, len(plan))
	}

	// Fault-free golden runs, one per workload, each recording its
	// pruning oracle as it runs. A benchmark that fails a soundness gate
	// gets a disabled index and falls back to simulation.
	set, err := cfg.prepare(core.Want{})
	if err != nil {
		return nil, err
	}
	set.emit(str, &cfg, parallel)
	goldens, pruneIdx := set.goldens, set.prune

	jobs := make(chan job, parallel)
	var wg sync.WaitGroup
	engines := make([]*core.Engine, parallel)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		// One engine (and so one pooled device per workload) per
		// worker: trials reuse simulator state instead of
		// reallocating it, with bit-identical results.
		eng := core.NewEngine(cfg.Arch)
		eng.SetNoCOW(cfg.NoCOW)
		engines[w] = eng
		// One tracer per worker, like the engine: it is reset per trial
		// and records only deterministic per-trial facts, so the traced
		// report stays independent of worker count.
		var obsv core.TrialObserver
		if cfg.Trace {
			obsv = obs.NewTracer()
		}
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := cfg.Specs[j.b]
				if str != nil {
					str.trialStart(spec.Name, j.t)
				}
				ts := cfg.TrialSpec(goldens[j.b], spec.Name, j.t)
				ts.Observer = obsv
				res, pruned := pruneIdx[j.b].PruneTrial(goldens[j.b], ts)
				if pruned {
					res.Pruned = true
				} else {
					res = eng.RunTrial(spec, goldens[j.b], ts)
				}
				results[j.b][j.t] = *res
				ran[j.b][j.t] = true
				if str != nil {
					str.trial(spec.Name, j.t, res)
				}
			}
		}()
	}
	stopped := false
dispatch:
	for _, j := range plan {
		select {
		case <-cfg.Stop:
			stopped = true
			break dispatch
		case jobs <- j:
		}
	}
	close(jobs)
	wg.Wait()
	var rs core.RestoreStats
	for _, eng := range engines {
		rs.Add(eng.Stats())
	}
	if cfg.RestoreStats != nil {
		cfg.RestoreStats.Add(rs)
	}

	rep := aggregate(&cfg, goldens, results, ran, set.pruneOff)
	if str != nil {
		str.campaignDone(rep, rs)
		if err := str.err(); err != nil {
			return nil, fmt.Errorf("campaign: event stream: %w", err)
		}
	}
	if stopped {
		return rep, ErrStopped
	}
	return rep, nil
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

// aggregate folds the ran subset of the trial grid into the report, in
// index order.
func aggregate(cfg *Config, goldens []*core.Golden, results [][]core.TrialResult, ran [][]bool, pruneOff []string) *Report {
	rep := &Report{
		Arch:            cfg.Arch.Name,
		Scheme:          cfg.Opt.Scheme.String(),
		Model:           cfg.Model.String(),
		WCDL:            goldens[0].Comp.Opt.WCDL,
		Seed:            cfg.Seed,
		Trials:          cfg.Trials,
		StrikesPerTrial: maxInt(1, cfg.StrikesPerTrial),
	}
	for b := range results {
		br := BenchReport{
			Benchmark:     cfg.Specs[b].Name,
			WindowCycles:  goldens[b].Window,
			PruneDisabled: pruneOff[b],
		}
		for t := range results[b] {
			if ran[b][t] {
				br.fold(&results[b][t])
			}
		}
		br.finish()
		rep.Benchmarks = append(rep.Benchmarks, br)
		rep.Fleet.merge(&br)
	}
	rep.Fleet.Benchmark = "fleet"
	rep.Fleet.finish()
	return rep
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
