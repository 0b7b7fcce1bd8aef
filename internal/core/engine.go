package core

import (
	"errors"
	"fmt"
	"math"

	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// Engine is the one injection-trial runner: every campaign trial, every
// explained trial and every test reference runs through Engine.RunTrial
// (or Engine.Trial, which prunes first). It keeps one gpu.Device for
// its trials, with global memory restored from the golden run's initial
// image instead of re-running host setup, and the scheme compilation
// shared from the golden run instead of recompiled, and it starts each
// trial from a copy of its golden cursor paused at the trial's first
// arm cycle (cursor.go). A campaign worker holds one Engine, and feeds
// it each benchmark's trials in ascending first-arm order. A brand-new
// Engine with SetNoCOW, running from cycle 0, is the fresh-device
// reference (new device, full-image restore, full diff) the equivalence
// tests compare pooled trials against.
//
// An Engine is not safe for concurrent use — give each worker its own.
// The Golden passed to RunTrial is shared read-only across all engines.
type Engine struct {
	cfg gpu.Config
	// dev is the trial device, holding spec's memory; a trial of
	// another workload gives it that workload's (fitDevice).
	spec *KernelSpec
	dev  *gpu.Device
	// noCOW disables the dirty-page restore/diff fast path: every trial
	// restores the full InitMem image and diffs the full footprint, as
	// the engine did before page tracking. Results are byte-identical
	// either way; the escape hatch exists so that can be asserted and so
	// a tracking bug can be ruled out in the field.
	noCOW bool
	// cur is the golden cursor trials start from (cursor.go), and ctl
	// the controller every launch of a trial runs under: for a main
	// launch started there a copy of the cursor's, for any other launch
	// reset for it. fromZero runs every trial from cycle 0 instead, the
	// reference cursor-started trials are checked against.
	cur      cursor
	ctl      flame.Controller
	fromZero bool
	stats    RestoreStats
}

// RestoreStats accumulates the engine's dirty-page accounting. The
// restored-pages figure depends on trial scheduling (which trial last
// ran on this engine's device), so it lives here as a side channel and
// is deliberately kept out of TrialResult and the campaign report,
// which must stay byte-identical at any -parallel.
type RestoreStats struct {
	// Trials counts trials that reached the restore path.
	Trials int64
	// RestoredPages counts pages copied back from InitMem before
	// launches (includes each pooled device's initial full restore).
	RestoredPages int64
	// DirtyPages counts pages the trials actually wrote (deterministic
	// per trial: the bitmap is clean when each trial starts).
	DirtyPages int64
	// DiffPages counts pages compared during classification (dirty ∪
	// golden-vs-init divergence; zero for DUE/Hang trials, which skip
	// the diff).
	DiffPages int64
	// ResumedCycles counts the main-launch cycles trials did not
	// simulate because they started from a copy of the golden cursor.
	ResumedCycles int64
	// PrefixCycles counts the cycles trials simulated before their
	// first arm cycle (clamped to the main launch): the fault-free
	// prefix the cursor did not spare them.
	PrefixCycles int64
}

// Add accumulates another engine's counters (campaign-level summation
// across workers).
func (s *RestoreStats) Add(o RestoreStats) {
	s.Trials += o.Trials
	s.RestoredPages += o.RestoredPages
	s.DirtyPages += o.DirtyPages
	s.DiffPages += o.DiffPages
	s.ResumedCycles += o.ResumedCycles
	s.PrefixCycles += o.PrefixCycles
}

// NewEngine creates a trial engine for one architecture.
func NewEngine(cfg gpu.Config) *Engine {
	return &Engine{cfg: cfg}
}

// SetNoCOW switches the engine to full-footprint restore/diff (the
// pre-dirty-tracking behaviour): the reference the equivalence tests
// compare dirty-page restore against, not an option of any command.
// Classification is unchanged.
func (e *Engine) SetNoCOW(v bool) { e.noCOW = v }

// Stats returns the accumulated restore accounting.
func (e *Engine) Stats() RestoreStats { return e.stats }

// device returns the trial device, readied for the workload.
func (e *Engine) device(spec *KernelSpec) (*gpu.Device, error) {
	if e.dev == nil || e.spec != spec {
		dev, err := fitDevice(e.cfg, e.dev, spec)
		if err != nil {
			return nil, err
		}
		e.spec, e.dev = spec, dev
	}
	return e.dev, nil
}

// fitDevice readies dev for a workload other than the one it last ran,
// on a device of configuration cfg (a new device when dev is nil or has
// another configuration). Its memory, kept when it has the workload's
// size, holds no particular contents, so every page is marked dirty:
// the first restore from a golden's InitMem copies the full image. Its
// SMs, and the warps and blocks they pool, carry over; Start and
// CopyFrom size the pools to each launch.
func fitDevice(cfg gpu.Config, dev *gpu.Device, spec *KernelSpec) (*gpu.Device, error) {
	switch {
	case dev == nil || dev.Cfg != cfg:
		var err error
		if dev, err = gpu.NewDevice(cfg, spec.MemBytes); err != nil {
			return nil, err
		}
	case len(dev.Mem.Words()) != (spec.MemBytes+3)/4:
		dev.Mem = gpu.NewGlobalMem(spec.MemBytes)
	}
	dev.Mem.MarkAllDirty()
	return dev, nil
}

// schemeHooks attaches inj (when non-nil) to ctl (nil for a scheme
// without a runtime controller) and returns the hooks realizing both on
// one launch.
func schemeHooks(ctl *flame.Controller, inj *flame.Injector) *gpu.Hooks {
	switch {
	case ctl != nil:
		if inj != nil {
			ctl.Inj = inj
		}
		return ctl.Hooks()
	case inj != nil:
		return &gpu.Hooks{OnExecuted: func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
			inj.Observe(d, sm, w, pc)
		}}
	}
	return nil
}

// launchOne runs one compiled kernel on the device under ctl (nil for a
// scheme without a controller), optionally with the injector attached,
// accumulating stats into res — a launch that fails still contributes
// its partial stats, so DUE and Hang trials report the cycle they
// stopped at. The launch starts at cycle 0, ctl reset for c
// (Compiled.resetController), or, when from is non-nil, resumes from a
// copy of from's paused launch of it (gpu.Device.CopyFrom), ctl holding
// that launch's controller state; the device's memory must already
// hold the launch-start contents.
// Every simulation path (Runner.Run, Engine.RunTrial, the golden run)
// launches through it.
func launchOne(dev *gpu.Device, spec *KernelSpec, c *Compiled, grid, block isa.Dim3,
	params []uint32, inj *flame.Injector, ro *RunOpts, res *Result, from *gpu.Device, ctl *flame.Controller) error {
	launch := &gpu.Launch{
		Prog: c.Prog, Grid: grid, Block: block, Params: params,
		MaxCycles: ro.MaxCycles, Stop: ro.Stop,
	}
	hooks := gpu.CombineHooks(schemeHooks(ctl, inj), ro.Hooks)
	var st *gpu.Stats
	var err error
	if from == nil {
		st, err = dev.Run(launch, hooks)
	} else if err = dev.CopyFrom(from, launch, hooks); err == nil {
		st, err = dev.Continue(math.MaxInt64)
	}
	if st != nil {
		res.Stats.Accumulate(st)
	}
	if ctl != nil {
		res.Flame.Accumulate(&ctl.Stats)
	}
	if err != nil {
		return fmt.Errorf("%s/%s: %w", spec.Name, c.Opt.Scheme, err)
	}
	return nil
}

// RunTrial executes one injection trial on the pooled device and
// classifies the outcome, diffing the device's final memory against the
// golden image in place (no copy). The injector observes the main
// kernel's launch under the golden compilation's controller (or
// unprotected for a Baseline golden).
//
// A panic escaping the simulator or a scheme controller is recovered at
// the trial boundary and classified as OutcomeInternal: one broken trial
// must not kill a campaign worker (or, distributed, a worker process).
func (e *Engine) RunTrial(spec *KernelSpec, g *Golden, ts TrialSpec) (tr *TrialResult) {
	inj := flame.NewCampaignInjector(g.Sites, ts.Arms, g.MaxDelay, ts.Model, ts.Seed)
	tr = &TrialResult{}
	defer func() {
		if r := recover(); r != nil {
			trialPanicResult(tr, inj, r)
			// The trial device, or the cursor, was abandoned mid-run;
			// discard both so the next trial starts from new ones.
			e.dev, e.cur = nil, cursor{}
		}
	}()
	ro := &RunOpts{MaxCycles: ts.MaxCycles, Stop: ts.stopFunc()}
	if ts.Observer != nil {
		ts.Observer.BeginTrial(g, inj)
		ro.Hooks = ts.Observer.TrialHooks()
	}
	dev, err := e.device(spec)
	if err == nil {
		// Restore the post-setup snapshot. The dirty-page path copies
		// only pages written since the last restore (every write in the
		// simulator — kernel stores, atomics, injected corruption — goes
		// through gpu.GlobalMem.Store, so the bitmap is complete even
		// after a DUE/Hang/panic-free partial run).
		if e.noCOW {
			copy(dev.Mem.Words(), g.InitMem)
			dev.Mem.ResetDirty()
			e.stats.RestoredPages += int64(dev.Mem.NumPages())
		} else {
			e.stats.RestoredPages += int64(dev.Mem.RestoreFrom(g.InitMem))
		}
		e.stats.Trials++
		res := &Result{}
		at := ts.prefixEnd(g)
		var from *gpu.Device
		if !e.fromZero {
			from = e.pauseAt(spec, g, at)
		}
		ctl := &e.ctl
		switch {
		case from == nil:
			ctl = g.Comp.resetController(ctl)
		case e.cur.ctl == nil:
			ctl = nil
		default:
			ctl.CopyFrom(e.cur.ctl)
		}
		if from != nil {
			e.stats.ResumedCycles += from.Cycle()
			at -= from.Cycle()
		}
		e.stats.PrefixCycles += at
		// The injector observes only the main kernel's launch.
		err = launchOne(dev, spec, g.Comp, spec.Grid, spec.Block, spec.Params,
			inj, ro, res, from, ctl)
		if err == nil {
			err = runSteps(dev, spec, g.StepComps, ro, res, &e.ctl)
		}
		tr.Recoveries = res.Flame.Recoveries
		tr.Cycles = res.Stats.Cycles
		e.stats.DirtyPages += int64(dev.Mem.DirtyPageCount())
	}
	tr.Strikes = inj.FiredStrikes()
	tr.ExcludedStrikes = inj.ExcludedStrikes()
	tr.Detected = inj.Detected
	tr.Detections = inj.Detections
	tr.Description = inj.Description
	classifyTrial(tr, err, func() (int64, bool) {
		if e.noCOW {
			return memDiff(dev.Mem.Words(), g.Mem)
		}
		// Candidate pages: dirty in this trial OR differing between
		// InitMem and the golden final image. Any other page was
		// restored to InitMem, never written, and equal to g.Mem in the
		// fault-free run — it cannot diverge. Scanning candidates in
		// ascending page order therefore yields the true global first
		// diverging byte.
		addr, pages, eq := dev.Mem.DiffAgainst(g.Mem, g.diffPages)
		e.stats.DiffPages += int64(pages)
		return addr, eq
	})
	if ts.Observer != nil {
		var mem []uint32
		if dev != nil {
			mem = dev.Mem.Words()
		}
		ts.Observer.EndTrial(tr, mem, g)
	}
	return tr
}

// Trial is the campaign trial step: px (nil when pruning is off)
// classifies the trial without simulation when it can — the result is
// marked Pruned — and otherwise the trial runs on the pooled device.
// Every campaign path (in-process pool, distributed worker, restore
// profile) runs its trials through here.
func (e *Engine) Trial(spec *KernelSpec, g *Golden, px *PruneIndex, ts TrialSpec) *TrialResult {
	if tr, ok := px.PruneTrial(g, ts); ok {
		tr.Pruned = true
		return tr
	}
	return e.RunTrial(spec, g, ts)
}

// classifyTrial applies the standard outcome taxonomy. A run error is a
// Hang when the cycle budget or the wall-clock watchdog fired and a DUE
// otherwise. diff reports the first byte where final memory diverges
// from the golden image (and whether it does); it is only consulted for
// completed runs. SDC trials get the divergence address appended to
// their description so report exemplars say where memory went wrong.
func classifyTrial(tr *TrialResult, err error, diff func() (int64, bool)) {
	if err != nil {
		tr.Err, tr.Outcome = err.Error(), OutcomeDUE
		if errors.Is(err, gpu.ErrCycleLimit) || errors.Is(err, gpu.ErrWallClock) {
			tr.Outcome = OutcomeHang
		}
		return
	}
	if tr.Strikes == 0 {
		tr.Outcome = OutcomeNoInjection
		return
	}
	if addr, eq := diff(); !eq {
		tr.Outcome = OutcomeSDC
		if addr >= 0 {
			tr.Description += fmt.Sprintf("; memory first diverged at %#x", addr)
		}
		return
	}
	if tr.Detections > 0 {
		tr.Outcome = OutcomeRecovered
		return
	}
	tr.Outcome = OutcomeMasked
}
