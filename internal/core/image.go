package core

import (
	"sync/atomic"

	"flame/internal/flame"
	"flame/internal/gpu"
)

// Resume images. A trial executes exactly as the golden run does until
// its first strike arms: the injector observes without drawing before
// its arm cycle, detection has nothing pending, and the hooks the
// engine adds hold no state until a strike fires. So the golden keeps
// its main launch paused at one cycle, the image cycle, and a trial
// whose first arm cycle is at or after it resumes there instead of
// simulating the fault-free prefix. The image cycle is the first loop
// top (gpu.Device.Continue) at or after the middle of the arm span,
// clamped to the main launch: with uniformly drawn arms, about half the
// trials resume, each skipping about half of the main launch.
//
// The arm span needs the golden's whole window, so the image takes a
// second, partial run of the main launch. The first trial that can
// resume makes it (resumeImage); set-up does not wait for it, and a
// holder of the golden that runs no trials, such as the distributed
// coordinator, never pays for it. Trials that could resume while it is
// being made run from cycle 0 instead of waiting: their results are
// the same either way.

// launchImage is a launch paused at a loop top: the device's state
// and, under a scheme with a runtime controller, the controller's.
type launchImage struct {
	dev *gpu.Image
	ctl *flame.Image
}

// resumeImage is a golden's image, made once on first use and then
// shared read-only by every engine.
type resumeImage struct {
	claimed atomic.Bool // a trial has set out to make the image
	img     atomic.Pointer[launchImage]
}

// imageCycle returns the cycle the golden's image is taken at: the
// middle of the arm span, clamped to the main launch.
func (g *Golden) imageCycle() int64 {
	return min(g.ArmSpan()/2, g.MainCycles)
}

// resumeFrom returns the image a trial on dev starts from: the
// golden's when every strike arms at or after the image cycle, or nil
// to run from cycle 0. The first call that needs the image makes it on
// dev, whose memory must hold InitMem with a clean dirty bitmap, and
// leaves it so.
func (g *Golden) resumeFrom(dev *gpu.Device, spec *KernelSpec, ts TrialSpec) *launchImage {
	if g.image == nil || len(ts.Arms) == 0 || ts.Arms[0] < g.imageCycle() {
		return nil
	}
	img := g.image.img.Load()
	if img == nil && g.image.claimed.CompareAndSwap(false, true) {
		img = g.pause(dev, spec)
		g.image.img.Store(img)
		dev.Mem.RestoreFrom(g.InitMem)
	}
	if img == nil || ts.Arms[0] < img.dev.Cycle() || !img.dev.Fits(dev.Cfg) {
		return nil
	}
	return img
}

// pause re-runs the golden main launch on dev, from InitMem and under
// the scheme's own hooks, up to the first loop top at or after the
// image cycle and returns the paused launch's image, or nil when the
// image cycle is 0 or the launch cannot be imaged: then every trial
// runs from cycle 0, which gives the same results.
func (g *Golden) pause(dev *gpu.Device, spec *KernelSpec) *launchImage {
	at := g.imageCycle()
	if at <= 0 {
		return nil
	}
	ctl, hooks := schemeHooks(g.Comp, nil)
	l := &gpu.Launch{Prog: g.Comp.Prog, Grid: spec.Grid, Block: spec.Block, Params: spec.Params}
	if err := dev.Start(l, hooks); err != nil {
		return nil
	}
	if _, err := dev.Continue(at); err != nil {
		return nil
	}
	img := &launchImage{dev: dev.Image()}
	if ctl != nil {
		var err error
		if img.ctl, err = ctl.Image(dev); err != nil {
			return nil
		}
	}
	return img
}
