package gpu

import (
	"fmt"
	"io"

	"flame/internal/isa"
)

// CombineHooks chains two hook sets: both observers run; BeforeIssue
// permits issue only if both permit, at the union of the instructions
// the two declare (IssueAt). Either argument may be nil.
func CombineHooks(a, b *Hooks) *Hooks {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var beforeIssue func(d *Device, sm *SM, w *Warp) bool
	if a.BeforeIssue != nil || b.BeforeIssue != nil {
		beforeIssue = func(d *Device, sm *SM, w *Warp) bool {
			return a.beforeIssue(d, sm, w) && b.beforeIssue(d, sm, w)
		}
	}
	return &Hooks{
		BeforeIssue: beforeIssue,
		IssueAt: func(in *isa.Inst) bool {
			return a.issueAt(in) || b.issueAt(in)
		},
		OnExecuted: func(d *Device, sm *SM, w *Warp, pc int) {
			a.onExecuted(d, sm, w, pc)
			b.onExecuted(d, sm, w, pc)
		},
		OnAtomic: func(d *Device, sm *SM, w *Warp, space isa.Space, addr, old uint32, lane int) {
			a.onAtomic(d, sm, w, space, addr, old, lane)
			b.onAtomic(d, sm, w, space, addr, old, lane)
		},
		OnCycle: func(d *Device) {
			a.onCycle(d)
			b.onCycle(d)
		},
		// The combined bound is the tighter of the two; a constituent
		// with OnCycle but no OnAdvance degrades the pair to no-skip
		// through the onAdvance helper.
		OnAdvance: func(d *Device, from, to int64) int64 {
			t := a.onAdvance(d, from, to)
			if t <= from {
				return from
			}
			return b.onAdvance(d, from, t)
		},
		OnBlockDone: func(d *Device, sm *SM, gb int) {
			a.onBlockDone(d, sm, gb)
			b.onBlockDone(d, sm, gb)
		},
		OnWarpDispatch: func(d *Device, sm *SM, w *Warp) {
			a.onWarpDispatch(d, sm, w)
			b.onWarpDispatch(d, sm, w)
		},
		Slots: combineSlots(a.Slots, b.Slots),
	}
}

// Tracer streams per-instruction execution events to a writer — the
// cycle, SM, warp, block, PC, active mask and disassembly of every
// instruction issued inside the configured window. Attach it with
// CombineHooks next to a resilience controller to watch recovery
// replays instruction by instruction.
type Tracer struct {
	W io.Writer
	// FromCycle / ToCycle bound the traced window (ToCycle 0 = no bound).
	FromCycle, ToCycle int64
	// Events counts emitted lines.
	Events int64
}

// NewTracer returns a tracer for the whole run.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{W: w}
}

// Hooks returns simulator hooks that emit the trace. The OnAdvance
// bound keeps event-driven cycle skipping compatible with windowed
// tracing: instructions never execute inside a skipped span, so the
// tracer has nothing to observe there, and the bound only stops a
// single jump from crossing the window start so windowed traces line
// up cycle-for-cycle with runs without cycle skipping (NoCycleSkip).
func (t *Tracer) Hooks() *Hooks {
	return &Hooks{OnExecuted: t.onExecuted, OnAdvance: t.onAdvance}
}

// onAdvance lands skips on the trace-window start and is a no-op bound
// (full permission) elsewhere.
func (t *Tracer) onAdvance(d *Device, from, to int64) int64 {
	if t.FromCycle > from && t.FromCycle < to {
		return t.FromCycle
	}
	return to
}

func (t *Tracer) onExecuted(d *Device, sm *SM, w *Warp, pc int) {
	if d.Cyc < t.FromCycle || (t.ToCycle > 0 && d.Cyc > t.ToCycle) {
		return
	}
	in := &d.launch.Prog.Insts[pc]
	fmt.Fprintf(t.W, "cyc=%-8d sm=%d blk=%-3d w=%-3d pc=%-4d mask=%08x  %s\n",
		d.Cyc, sm.ID, w.GlobalBlock, w.ID, pc, w.ActiveMask(), in.String())
	t.Events++
}
