package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/stats"
)

// campaignConfig is the uniform Flame campaign (campaign and fleet
// workloads): Sensor+Renaming with region extension on GTX480, WCDL 20,
// data-slice faults, pruning and page-granular restore on, one worker
// goroutine per CPU.
func campaignConfig(sc scale, seed uint64) (campaign.Config, error) {
	specs, err := suiteSpecs(sc.suite)
	return campaign.Config{
		Arch:     gpu.GTX480(),
		Opt:      core.Options{Scheme: core.SensorRenaming, WCDL: 20, ExtendRegions: true},
		Specs:    specs,
		Trials:   sc.trials,
		Parallel: runtime.GOMAXPROCS(0),
		Seed:     seed,
		Model:    flame.DataSlice,
		Prune:    true,
	}, err
}

// sampledConfig is the stratified unprotected campaign: Baseline (no
// controller), liveness strata, Neyman rounds and a CI target.
func sampledConfig(sc scale, seed uint64) (campaign.Config, error) {
	cfg, err := campaignConfig(sc, seed)
	cfg.Opt = core.Options{Scheme: core.Baseline, WCDL: 20}
	cfg.Trials = sc.sampledBudget
	cfg.Stratify = true
	cfg.StrataKey = "liveness"
	cfg.CITarget = sc.ciTarget
	return cfg, err
}

func suiteSpecs(names []string) ([]*core.KernelSpec, error) {
	specs := make([]*core.KernelSpec, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = b.Spec()
	}
	return specs, nil
}

// eventLog is the campaign's Config.Events writer. It only stamps and
// keeps lines (the campaign writes one JSON line per Write); they are
// parsed after the run, outside the timed region.
type eventLog struct {
	mu    sync.Mutex
	at    []time.Time
	lines [][]byte
}

func (l *eventLog) Write(p []byte) (int, error) {
	now := time.Now()
	line := append([]byte(nil), p...)
	l.mu.Lock()
	l.at = append(l.at, now)
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	return len(p), nil
}

// trialRec is one classified trial, timed from its trial_start line to
// its trial line.
type trialRec struct {
	bench      string
	trial      int
	start, end time.Time
	cycles     int64
	pruned     bool
	outcome    string
}

// campRun is one campaign.Run call and what its public surfaces showed.
type campRun struct {
	start, end time.Time
	report     *campaign.Report
	json       []byte
	trials     []trialRec // in completion order
	rounds     int
	restore    core.RestoreStats
	alloc      uint64
	// Stamps of the event lines that bracket campaign.Run's phases: the
	// campaign_start line follows the golden runs (and, stratified, the
	// strata enumeration), the last golden or strata line precedes the
	// prune index builds, and campaign_done follows the aggregation.
	goldensDone, setupLinesDone, aggregated time.Time
}

// firstTrial is when the first trial started (the end of set-up).
func (r *campRun) firstTrial() time.Time {
	t := r.end
	for _, tr := range r.trials {
		if tr.start.Before(t) {
			t = tr.start
		}
	}
	return t
}

func (r *campRun) rep() rep {
	rp := rep{wall: r.end.Sub(r.start), setup: r.firstTrial().Sub(r.start), ops: len(r.trials)}
	for _, t := range r.trials {
		if t.outcome == core.OutcomeInternal.String() {
			rp.failed++
		}
		if !t.pruned {
			rp.simCycles += t.cycles
		}
	}
	return rp
}

// runCampaign runs one campaign with the event log and restore counters
// attached.
func runCampaign(cfg campaign.Config) (*campRun, error) {
	ev := &eventLog{}
	cfg.Events = ev
	r := &campRun{}
	cfg.RestoreStats = &r.restore
	a0 := allocBytes()
	r.start = time.Now()
	rep, err := campaign.Run(cfg)
	r.end = time.Now()
	r.alloc = allocBytes() - a0
	if err != nil {
		return nil, err
	}
	if r.json, err = rep.JSON(); err != nil {
		return nil, err
	}
	r.report = rep
	return r, r.parseEvents(ev)
}

// parseEvents pairs trial_start and trial lines and sums bench_done
// rounds.
func (r *campRun) parseEvents(ev *eventLog) error {
	type key struct {
		bench string
		trial int
	}
	started := map[key]time.Time{}
	for i, line := range ev.lines {
		// Only the fields of trial_start, trial and bench_done lines
		// (campaign_done reuses "pruned" as a count).
		var e struct {
			Event     string `json:"event"`
			Benchmark string `json:"benchmark"`
			Trial     int    `json:"trial"`
			Outcome   string `json:"outcome"`
			Cycles    int64  `json:"cycles"`
			Pruned    any    `json:"pruned"`
			Rounds    int    `json:"rounds"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("event line %d: %w", i+1, err)
		}
		k := key{e.Benchmark, e.Trial}
		switch e.Event {
		case "campaign_start":
			r.goldensDone, r.setupLinesDone = ev.at[i], ev.at[i]
		case "golden", "strata":
			r.setupLinesDone = ev.at[i]
		case "campaign_done":
			r.aggregated = ev.at[i]
		case "trial_start":
			started[k] = ev.at[i]
		case "trial":
			st, ok := started[k]
			if !ok {
				return fmt.Errorf("trial %s/%d has no trial_start", e.Benchmark, e.Trial)
			}
			delete(started, k)
			r.trials = append(r.trials, trialRec{
				bench: e.Benchmark, trial: e.Trial, start: st, end: ev.at[i],
				cycles: e.Cycles, pruned: e.Pruned == true, outcome: e.Outcome,
			})
		case "bench_done":
			r.rounds += e.Rounds
		}
	}
	if len(r.trials) != r.report.Fleet.Trials {
		return fmt.Errorf("event stream has %d trials, report %d", len(r.trials), r.report.Fleet.Trials)
	}
	if r.goldensDone.IsZero() || r.aggregated.IsZero() {
		return fmt.Errorf("event stream lacks its campaign_start or campaign_done line")
	}
	return nil
}

// checkReports checks that every repetition produced the same report,
// equal to the pin when there is one, and (under a detecting scheme) no
// uncovered outcome.
func checkReports(out *outcome, name string, runs []*campRun, pin string, flameScheme bool) {
	for i, r := range runs {
		if !bytes.Equal(r.json, runs[0].json) {
			out.problem("%s: repetition %d report differs from repetition 1", name, i+1)
		}
		f := r.report.Fleet
		if f.Internal > 0 {
			out.problem("%s: %d internal trials", name, f.Internal)
		}
		if flameScheme && f.SDC+f.DUE+f.Hang > 0 {
			out.problem("%s: Flame left sdc=%d due=%d hang=%d", name, f.SDC, f.DUE, f.Hang)
		}
	}
	if pin != "" && len(runs) > 0 {
		if d := digest(runs[0].json); d != pin {
			out.problem("%s: report digest %s, pinned %s", name, d, pin)
		}
	}
}

// pinFor returns the pinned digest of a campaign workload, or "".
func pinFor(o *options, name string) string {
	if o.pins == nil {
		return ""
	}
	if name == "sampled" {
		return o.pins.sampled
	}
	return o.pins.campaign
}

func runCampaignWorkload(o *options) (*outcome, error) {
	cfg, err := campaignConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	return runInProcess(o, cfg, true)
}

func runSampledWorkload(o *options) (*outcome, error) {
	cfg, err := sampledConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	return runInProcess(o, cfg, false)
}

// runInProcess drives the campaign and sampled workloads.
func runInProcess(o *options, cfg campaign.Config, flameScheme bool) (*outcome, error) {
	out := &outcome{}
	var runs []*campRun
	once := func() (*campRun, error) {
		r, err := runCampaign(cfg)
		if err == nil {
			runs = append(runs, r)
		}
		return r, err
	}
	if !o.traced {
		reps, err := measure(o.budget, func() (rep, error) {
			r, err := once()
			if err != nil {
				return rep{}, err
			}
			return r.rep(), nil
		})
		if err != nil {
			return nil, err
		}
		for _, r := range reps {
			out.attempted += r.ops
			out.failed += r.failed
		}
		out.reps = reps
		out.metrics = endToEnd(reps, nil)
		checkReports(out, o.workload, runs, pinFor(o, o.workload), flameScheme)
		return out, nil
	}

	// The set-up decomposition runs first and so also warms the process
	// up. Then bare and observed repetitions alternate (bare, observed,
	// observed, bare), so that a linear drift of the host cancels out of
	// trace.overhead_frac. A bare repetition attaches no observer; an
	// observed one attaches the event writer and restore counters that
	// every untraced repetition attaches too. The spans come from the
	// first observed repetition.
	tr := &tracer{run: fmt.Sprintf("%s/seed%d", o.workload, o.seed)}
	d, err := decompose(tr, cfg)
	if err != nil {
		return nil, err
	}
	var bare, observed time.Duration
	var traced *campRun
	for _, observe := range []bool{false, true, true, false} {
		if !observe {
			t0 := time.Now()
			rep, err := campaign.Run(cfg)
			bare += time.Since(t0)
			if err != nil {
				return nil, err
			}
			js, err := rep.JSON()
			if err != nil {
				return nil, err
			}
			runs = append(runs, &campRun{report: rep, json: js})
			continue
		}
		r, err := once()
		if err != nil {
			return nil, err
		}
		observed += r.end.Sub(r.start)
		if traced == nil {
			traced = r
		}
	}
	checkReports(out, o.workload, runs, pinFor(o, o.workload), flameScheme)
	rp := traced.rep()
	out.attempted, out.failed = rp.ops, rp.failed
	root := traced.spans(tr, cfg)
	met := zeroLayerMetrics()
	d.fill(met)
	fillTrialMetrics(met, traced.trials, d.prefixFn(cfg))
	simulated := float64(countSimulated(traced.trials))
	if simulated > 0 {
		met["core.restored_pages_per_trial"] = float64(traced.restore.RestoredPages) / simulated
		met["core.diff_pages_per_trial"] = float64(traced.restore.DiffPages) / simulated
	}
	met["core.alloc_kb_per_trial"] = float64(traced.alloc) / 1024 / float64(len(traced.trials))
	phase, busy, lastStart, lastEnd := trialPhase(traced.trials)
	if phase > 0 {
		met["campaign.idle_frac"] = 1 - busy.Seconds()/(float64(cfg.Parallel)*phase.Seconds())
	}
	met["campaign.rounds"] = float64(traced.rounds)
	met["campaign.tail_s"] = lastEnd.Sub(lastStart).Seconds()
	met["trace.overhead_frac"] = observed.Seconds()/bare.Seconds() - 1
	met["trace.span_coverage"] = tr.coverage(root)
	out.metrics = met
	return out, writeTrace(o, tr, root)
}

func countSimulated(ts []trialRec) int {
	n := 0
	for _, t := range ts {
		if !t.pruned {
			n++
		}
	}
	return n
}

// trialPhase returns the span from the first trial start to the last
// trial end, the summed trial time, and the last start and end.
func trialPhase(ts []trialRec) (phase, busy time.Duration, lastStart, lastEnd time.Time) {
	if len(ts) == 0 {
		return
	}
	first := ts[0].start
	for _, t := range ts {
		busy += t.end.Sub(t.start)
		if t.start.Before(first) {
			first = t.start
		}
		if t.start.After(lastStart) {
			lastStart = t.start
		}
		if t.end.After(lastEnd) {
			lastEnd = t.end
		}
	}
	return lastEnd.Sub(first), busy, lastStart, lastEnd
}

// spans rebuilds the run's spans from the stamps of its event lines.
// Each span lies between two lines that bracket one phase of
// campaign.Run: the golden runs (with strata enumeration when
// stratified, which campaign.Run interleaves with them) up to
// campaign_start, the prune index builds from the last golden or strata
// line to the first trial_start, one span per trial on the worker lane
// that ran it, and the aggregation from the last trial line to
// campaign_done. Time that no pair of lines brackets stays uncovered:
// the writes of the set-up lines, gaps between trials on every lane,
// and the return after campaign_done.
func (r *campRun) spans(tr *tracer, cfg campaign.Config) int {
	root := tr.add(0, "campaign.run", 0, r.start, r.end)
	golden := "core.golden"
	if cfg.Stratify {
		golden = "core.golden_strata"
	}
	tr.add(root, golden, 0, r.start, r.goldensDone)
	if cfg.Prune {
		tr.add(root, "core.prune_index", 0, r.setupLinesDone, r.firstTrial())
	}
	addTrialSpans(tr, root, r.trials, cfg.Parallel)
	_, _, _, lastEnd := trialPhase(r.trials)
	tr.add(root, "campaign.aggregate", 0, lastEnd, r.aggregated)
	return root
}

// addTrialSpans adds one span per trial, assigning each to the first
// worker lane free at its start (at most parallel trials overlap).
func addTrialSpans(tr *tracer, parent int, ts []trialRec, parallel int) {
	sorted := append([]trialRec(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	free := make([]time.Time, parallel)
	for _, t := range sorted {
		lane := 0
		for i := range free {
			if !free[i].After(t.start) {
				lane = i
				break
			}
			if free[i].Before(free[lane]) {
				lane = i
			}
		}
		free[lane] = t.end
		name := "core.trial"
		if t.pruned {
			name = "core.prune"
		}
		tr.add(parent, name, lane+1, t.start, t.end)
	}
}

// fillTrialMetrics derives the per-trial core metrics from trial
// records. prefix returns a trial's first arm cycle (nil: unavailable).
func fillTrialMetrics(met map[string]float64, ts []trialRec, prefix func(bench string, t int) int64) {
	var simMS, pruneUS []float64
	var cycles, arms int64
	var simDur time.Duration
	for _, t := range ts {
		d := t.end.Sub(t.start)
		if t.pruned {
			pruneUS = append(pruneUS, float64(d.Nanoseconds())/1e3)
			continue
		}
		simMS = append(simMS, float64(d.Nanoseconds())/1e6)
		simDur += d
		cycles += t.cycles
		if prefix != nil {
			arms += prefix(t.bench, t.trial)
		}
	}
	met["core.trial_ms_p50"] = quantile(simMS, 0.5)
	met["core.trial_ms_p99"] = quantile(simMS, 0.99)
	met["core.trial_samples"] = float64(len(simMS))
	if len(simMS) > 0 {
		met["core.cycles_per_trial"] = float64(cycles) / float64(len(simMS))
	}
	if cycles > 0 {
		met["core.ns_per_trial_cycle"] = float64(simDur.Nanoseconds()) / float64(cycles)
		met["core.prefix_frac"] = float64(arms) / float64(cycles)
	}
	if len(ts) > 0 {
		met["core.pruned_frac"] = float64(len(pruneUS)) / float64(len(ts))
	}
	met["core.prune_us_per_trial"] = stats.Mean(pruneUS)
}

// decomposition is the set-up work of a campaign, redone by direct timed
// calls to the core entry points campaign.Run makes before its first
// trial.
type decomposition struct {
	compile, golden, prune, strata time.Duration
	goldens                        map[string]*core.Golden
}

// decompose times core.Compile, core.GoldenRun, core.BuildPruneIndex
// and (stratified) core.BuildStrataKeyed per benchmark under a
// "core.decompose" root span. GoldenRun compiles again internally.
func decompose(tr *tracer, cfg campaign.Config) (*decomposition, error) {
	d := &decomposition{goldens: map[string]*core.Golden{}}
	start := time.Now()
	type call struct {
		name       string
		start, end time.Time
	}
	var calls []call
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		calls = append(calls, call{name, t0, time.Now()})
		return err
	}
	for _, spec := range cfg.Specs {
		var g *core.Golden
		err := timed("core.compile", func() error {
			_, err := core.Compile(spec.Prog, cfg.Opt)
			return err
		})
		if err == nil {
			err = timed("core.golden", func() (err error) {
				g, err = core.GoldenRun(cfg.Arch, spec, cfg.Opt)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		d.goldens[spec.Name] = g
		if cfg.Prune {
			timed("core.prune_index", func() error {
				core.BuildPruneIndex(cfg.Arch, spec, g, 0)
				return nil
			})
		}
		if cfg.Stratify {
			key, err := core.ParseStrataKey(cfg.StrataKey)
			if err == nil {
				err = timed("core.strata", func() error {
					_, err := core.BuildStrataKeyed(cfg.Arch, spec, g, cfg.Model, key)
					return err
				})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
	}
	root := tr.add(0, "core.decompose", 0, start, time.Now())
	for _, c := range calls {
		tr.add(root, c.name, 0, c.start, c.end)
		switch c.name {
		case "core.compile":
			d.compile += c.end.Sub(c.start)
		case "core.golden":
			d.golden += c.end.Sub(c.start)
		case "core.prune_index":
			d.prune += c.end.Sub(c.start)
		case "core.strata":
			d.strata += c.end.Sub(c.start)
		}
	}
	return d, nil
}

func (d *decomposition) fill(met map[string]float64) {
	met["core.compile_s"] = d.compile.Seconds()
	met["core.golden_s"] = d.golden.Seconds()
	met["core.prune_index_s"] = d.prune.Seconds()
	met["core.strata_s"] = d.strata.Seconds()
}

// prefixFn returns each uniform-grid trial's first arm cycle, derived
// with Config.TrialSpec. Stratified trial specs are not public, so
// stratified campaigns have none.
func (d *decomposition) prefixFn(cfg campaign.Config) func(string, int) int64 {
	if cfg.Stratify {
		return nil
	}
	return func(bench string, t int) int64 {
		return cfg.TrialSpec(d.goldens[bench], bench, t).Arms[0]
	}
}
