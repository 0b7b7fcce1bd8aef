package gpu_test

import (
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// scanChecker is a hook set whose OnCycle checks the issue scan's masks
// against a from-scratch classification (gpu.CheckIssueScan) on every
// simulated cycle. With act set it also steers issue the way the Flame
// controller does: it declares memory instructions and exits
// (IssueAt), and at those BeforeIssue vetoes every third call, as a
// full conveyor does, and on every fifth suspends the warp for
// suspendFor cycles, as a region-boundary wait does.
type scanChecker struct {
	act     bool
	cov     gpu.ScanCoverage
	err     error
	calls   int
	vetoes  int
	pending []resume
}

type resume struct {
	w  *gpu.Warp
	at int64
}

const suspendFor = 9

func (c *scanChecker) hooks() *gpu.Hooks {
	h := &gpu.Hooks{
		OnCycle: func(d *gpu.Device) {
			if c.err == nil {
				c.err = gpu.CheckIssueScan(d, &c.cov)
			}
			kept := c.pending[:0]
			for _, r := range c.pending {
				if r.at <= d.Cyc {
					r.w.SetSuspended(false)
				} else {
					kept = append(kept, r)
				}
			}
			c.pending = kept
		},
	}
	if c.act {
		h.IssueAt = func(in *isa.Inst) bool { return in.Op.IsMemory() || in.Op == isa.OpExit }
		h.BeforeIssue = func(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) bool {
			c.calls++
			switch {
			case c.calls%5 == 0:
				w.SetSuspended(true)
				c.pending = append(c.pending, resume{w, d.Cyc + suspendFor})
				return false
			case c.calls%3 == 0:
				c.vetoes++
				return false
			}
			return true
		}
	}
	return h
}

// TestIssueScanMatchesFromScratch is the differential test of the
// mask-based issue scan: on every cycle of several benchmarks, under
// all four schedulers, each SM's scoreboard wait set, class masks and
// structural-hazard mask must match a from-scratch, per-warp
// classification. It runs the benchmarks under Flame (its own hooks
// plus the checker) and under Baseline with the checker's
// veto-and-suspend hook.
func TestIssueScanMatchesFromScratch(t *testing.T) {
	var total gpu.ScanCoverage
	vetoes := 0
	for _, name := range []string{"Triad", "Histogram", "BFS", "Hotspot", "BS", "SGEMM"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec()
		for _, scheme := range []core.Options{core.FlameOptions(), {Scheme: core.Baseline}} {
			comp, err := core.Compile(spec.Prog, scheme)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []gpu.SchedulerKind{gpu.GTO, gpu.OLD, gpu.LRR, gpu.TwoLevel} {
				cfg := gpu.GTX480()
				cfg.NumSMs = 2
				cfg.Scheduler = sched
				c := &scanChecker{act: scheme.Scheme == core.Baseline}
				if _, err := core.RunCompiledOpts(cfg, spec, comp, nil, core.RunOpts{Hooks: c.hooks()}); err != nil {
					t.Fatal(err)
				}
				if c.err != nil {
					t.Fatalf("%s/%s/%s: %v", name, scheme.Scheme.FlagName(), sched, c.err)
				}
				total.Slots += c.cov.Slots
				total.Scoreboard += c.cov.Scoreboard
				total.Struct += c.cov.Struct
				total.Hook += c.cov.Hook
				vetoes += c.vetoes
			}
		}
	}
	if total.Scoreboard == 0 || total.Struct == 0 || total.Hook == 0 || vetoes == 0 {
		t.Errorf("a class never occurred, so the check did not exercise it: %+v, %d vetoes", total, vetoes)
	}
	t.Logf("checked %+v, %d vetoes", total, vetoes)
}
