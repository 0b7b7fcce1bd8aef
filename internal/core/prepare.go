package core

import (
	"fmt"
	"slices"

	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/par"
)

// Campaign set-up: one fault-free simulation per benchmark yields the
// golden reference and, recorded while it runs, the pruning schedule
// and the injection-site strata. The recorder is an OnExecuted-only
// hook combined after the scheme's own on the main launch, so it sees
// executed instructions in exactly the order a trial's injector does,
// and it leaves the schedule unchanged.

// Want selects what Prepare records during the golden run besides the
// Golden itself.
type Want struct {
	// Prune records the main launch's schedule into a PruneIndex.
	Prune bool
	// EventCap bounds the recorded schedule (<= 0 selects
	// DefaultPruneEventCap).
	EventCap int
	// Strata enumerates the single-strike site space under Model and
	// Key.
	Strata bool
	Model  flame.FaultModel
	Key    StrataKey
}

// Setup is one benchmark's campaign set-up. Prune and Strata are nil
// unless the Want asked for them.
type Setup struct {
	Golden *Golden
	Prune  *PruneIndex
	Strata *flame.StrataMap
}

// Prepare compiles the spec for the scheme, performs the fault-free
// reference run, validating its output, and records what want asks for
// while that run executes.
func Prepare(cfg gpu.Config, spec *KernelSpec, opt Options, want Want) (Setup, error) {
	if want.Strata {
		if _, err := ParseStrataKey(string(want.Key)); err != nil {
			return Setup{}, err
		}
	}
	comp, err := Compile(spec.Prog, opt)
	if err != nil {
		return Setup{}, err
	}
	steps, err := compileSteps(spec, comp.Opt)
	if err != nil {
		return Setup{}, err
	}
	g := &Golden{
		Comp: comp, Sites: flame.NewSites(comp.Prog), StepComps: steps,
		InitMem: make([]uint32, (spec.MemBytes+3)/4), MaxDelay: comp.Opt.WCDL,
	}
	if !opt.Scheme.UsesSensors() {
		g.MaxDelay = 0 // DMR detects at the replica; model as immediate
	}
	if spec.Setup != nil {
		spec.Setup(g.InitMem)
	}
	rec := newRecorder(g, spec.Name, want)
	if err := g.run(cfg, spec, rec.hooks()); err != nil {
		return Setup{}, fmt.Errorf("golden run: %w", err)
	}
	px, sm := rec.finish(g)
	return Setup{Golden: g, Prune: px, Strata: sm}, nil
}

// PrepareAll runs Prepare for every spec on GOMAXPROCS workers and
// returns the set-ups in spec order. A failure is prefixed with its
// spec's name, and the error returned is the first in spec order at any
// worker count (see par.For).
func PrepareAll(cfg gpu.Config, specs []*KernelSpec, opt Options, want Want) ([]Setup, error) {
	out := make([]Setup, len(specs))
	err := par.For(len(specs), func(i int) (err error) {
		if out[i], err = Prepare(cfg, specs[i], opt, want); err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run performs the fault-free run from InitMem with the compiled Steps,
// main observing the main launch only, and fills in MainCycles, Window,
// Mem and the diff-page bitmap.
func (g *Golden) run(cfg gpu.Config, spec *KernelSpec, main *gpu.Hooks) error {
	res := &Result{}
	dev, err := g.runMain(cfg, spec, main, res)
	if err != nil {
		return err
	}
	g.MainCycles = res.Stats.Cycles
	if err := runSteps(dev, spec, g.StepComps, &RunOpts{}, res, new(flame.Controller)); err != nil {
		return err
	}
	if err := validate(spec, g.Comp, dev.Mem.Words()); err != nil {
		return err
	}
	g.Window = res.Stats.Cycles
	g.Mem = append([]uint32(nil), dev.Mem.Words()...)
	g.diffPages = diffPageBitmap(g.InitMem, g.Mem)
	return nil
}

// runMain runs the golden's main launch from InitMem on a fresh device,
// hooks combined after the scheme's own, and returns the device.
func (g *Golden) runMain(cfg gpu.Config, spec *KernelSpec, hooks *gpu.Hooks, res *Result) (*gpu.Device, error) {
	dev, err := gpu.NewDevice(cfg, spec.MemBytes)
	if err != nil {
		return nil, err
	}
	copy(dev.Mem.Words(), g.InitMem)
	err = launchOne(dev, spec, g.Comp, spec.Grid, spec.Block, spec.Params, nil, &RunOpts{Hooks: hooks}, res, nil, g.Comp.Controller())
	return dev, err
}

// recorder watches the golden main launch for the set-up products: the
// pruning schedule and the strata enumeration.
type recorder struct {
	prog *isa.Program
	// px receives the schedule; nil when not wanted, and left alone
	// when a static gate already disabled it.
	px *PruneIndex
	// events holds the recorded schedule in chunks of eventChunk
	// events, so that recording never copies it; finish joins them into
	// px.
	events   [][]pruneEvent
	recorded int
	eventCap int
	overflow bool
	strata   *flame.StrataBuilder // nil when not wanted
}

// eventChunk is the recorder's chunk size in events (96 KiB).
const eventChunk = 4096

func newRecorder(g *Golden, kernel string, want Want) *recorder {
	prog := g.Comp.Prog
	r := &recorder{prog: prog, eventCap: want.EventCap}
	if r.eventCap <= 0 {
		r.eventCap = DefaultPruneEventCap
	}
	if want.Prune {
		r.px = newPruneIndex(g)
	}
	if want.Strata {
		sections := make([][2]int, len(g.Comp.Sections))
		for i, s := range g.Comp.Sections {
			sections[i] = [2]int{s.Start, s.End}
		}
		// The arm-cycle span depends on the whole run's window, which
		// the Steps still extend after the main launch.
		r.strata = flame.NewStrataBuilder(g.Sites, kernel, sections, want.Model, flame.OpenSpan)
		if want.Key == StrataKeyLiveness {
			r.strata.SetSiteLabels(SiteLabels(g.Sites))
		}
	}
	return r
}

func (r *recorder) recording() bool { return r.px != nil && r.px.disabled == "" }

// hooks returns the main-launch observer, or nil when there is nothing
// to record.
func (r *recorder) hooks() *gpu.Hooks {
	if !r.recording() && r.strata == nil {
		return nil
	}
	return &gpu.Hooks{OnExecuted: r.observe}
}

func (r *recorder) observe(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	mask := flame.StrikeLanes(w)
	if r.strata != nil {
		r.strata.Observe(d.Cyc, pc, mask)
	}
	if !r.recording() || r.overflow {
		return
	}
	if r.recorded >= r.eventCap {
		r.overflow = true
		return
	}
	last := len(r.events) - 1
	if last < 0 || len(r.events[last]) == eventChunk {
		r.events = append(r.events, make([]pruneEvent, 0, eventChunk))
		last++
	}
	r.events[last] = append(r.events[last], pruneEvent{
		cyc: d.Cyc, mask: mask, pc: int32(pc),
		warp: int32(w.ID), sm: int32(sm.ID),
	})
	r.recorded++
}

// replay re-runs a golden's main launch with the recorder attached, for
// callers that hold only a Golden. The run must reproduce the golden's
// main-launch cycle count.
func (r *recorder) replay(cfg gpu.Config, spec *KernelSpec, g *Golden) error {
	hooks := r.hooks()
	if hooks == nil {
		return nil
	}
	res := &Result{}
	if _, err := g.runMain(cfg, spec, hooks, res); err != nil {
		return err
	}
	if res.Stats.Cycles != g.MainCycles {
		return fmt.Errorf("replay diverged: main launch took %d cycles, golden %d",
			res.Stats.Cycles, g.MainCycles)
	}
	return nil
}

// finish seals the recordings once the golden's window is known.
func (r *recorder) finish(g *Golden) (*PruneIndex, *flame.StrataMap) {
	var sm *flame.StrataMap
	if r.strata != nil {
		sm = r.strata.FinishSpan(g.ArmSpan())
	}
	px := r.px
	if px == nil {
		return nil, sm
	}
	if px.disabled != "" {
		return px, sm
	}
	if r.overflow {
		px.disable(fmt.Sprintf("golden schedule exceeds %d events", r.eventCap))
		return px, sm
	}
	px.events = slices.Concat(r.events...)
	px.buildVuln(r.prog)
	return px, sm
}
