package core

import (
	"flame/internal/flame"
	"flame/internal/gpu"
)

// Golden cursor. A trial executes exactly as the golden run does until
// its first strike arms: the injector observes without drawing before
// its arm cycle, detection has nothing pending, and the hooks the
// engine adds hold no state until a strike fires. So each engine keeps
// a cursor, the golden main launch run forward under the scheme's own
// hooks on a device of its own, and a trial starts from a copy of the
// cursor paused at its first arm cycle, clamped to the main launch,
// instead of simulating the fault-free prefix: the trial device copies
// the cursor's device (gpu.Device.CopyFrom), and the engine's trial
// controller copies the cursor's controller, whose state is keyed by
// warp slot and so names the same warps on the copied device.
//
// Campaigns dispatch each benchmark's trials in ascending first-arm
// order, so a worker's cursor only moves forward and simulates the
// prefix once per benchmark. A trial that arms before the cursor's
// cycle restarts it from cycle 0: results never depend on trial order,
// only the work does. The engine keeps one cursor; a trial of another
// benchmark or golden restarts it on that golden's main launch.

// cursor is the golden main launch of one benchmark, paused at its
// device's current cycle.
type cursor struct {
	spec *KernelSpec
	g    *Golden
	dev  *gpu.Device
	// ctl is the launch's controller, nil for a scheme without one, and
	// own its storage.
	ctl *flame.Controller
	own flame.Controller
	// live reports that dev holds the launch, started and not failed.
	live bool
}

// prefixEnd returns the cycle up to which a trial's main launch is the
// golden's: its first arm cycle, clamped to the main launch (0 for a
// trial without strikes).
func (ts *TrialSpec) prefixEnd(g *Golden) int64 {
	if len(ts.Arms) == 0 {
		return 0
	}
	return min(ts.Arms[0], g.MainCycles)
}

// pauseAt advances the engine's cursor for the golden's main launch to
// cycle at, restarting it from cycle 0 when it is already past, and
// returns the cursor's device, paused there until the next call; the
// cursor's controller, e.cur.ctl, holds the launch's controller state
// until then too. It returns nil when the launch cannot be paused there
// (it fails first): the trial then runs from cycle 0, which gives the
// same result.
func (e *Engine) pauseAt(spec *KernelSpec, g *Golden, at int64) *gpu.Device {
	c := &e.cur
	if c.dev == nil || c.spec != spec || c.g != g {
		dev, err := fitDevice(e.cfg, c.dev, spec)
		if err != nil {
			return nil
		}
		c.spec, c.g, c.dev, c.live = spec, g, dev, false
	}
	if !c.live || c.dev.Cycle() > at {
		c.dev.Mem.RestoreFrom(g.InitMem)
		c.ctl = g.Comp.resetController(&c.own)
		l := &gpu.Launch{Prog: g.Comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
		if c.live = c.dev.Start(l, schemeHooks(c.ctl, nil)) == nil; !c.live {
			return nil
		}
	}
	if _, err := c.dev.Continue(at); err != nil {
		c.live = false
		return nil
	}
	return c.dev
}
