package gpu

import "flame/internal/isa"

// Hooks lets a resilience scheme observe and steer the simulation
// without the simulator knowing scheme specifics. All hooks are optional.
type Hooks struct {
	// BeforeIssue runs when the scheduler considers issuing warp w's next
	// instruction. Returning false blocks the warp for this cycle (the
	// hook may also call w.SetSuspended(true) to deschedule it durably —
	// this is how WCDL-aware warp scheduling treats a region boundary as
	// a long-latency operation). The hook must not change the state of
	// any other warp: the scheduler reads its partition's suspension and
	// barrier masks once, before the first BeforeIssue call.
	BeforeIssue func(d *Device, sm *SM, w *Warp) bool

	// IssueAt declares the instructions BeforeIssue acts on; nil means
	// every instruction. It is evaluated once per PC at launch, and the
	// scheduler calls BeforeIssue only for a warp whose next
	// instruction it selects. At any other instruction BeforeIssue must
	// return true and have no side effects, so that not calling it
	// changes nothing.
	IssueAt func(in *isa.Inst) bool

	// OnExecuted runs after warp w architecturally executed the
	// instruction at pc.
	OnExecuted func(d *Device, sm *SM, w *Warp, pc int)

	// OnAtomic runs for each lane-level atomic update before it commits,
	// with the old memory value (for undo logging).
	OnAtomic func(d *Device, sm *SM, w *Warp, space isa.Space, addr, old uint32, lane int)

	// OnCycle runs once per device cycle, after all SMs stepped.
	OnCycle func(d *Device)

	// OnWarpDispatch runs when a warp is placed on an SM, after its
	// state is fully initialized and before it can issue. Schemes that
	// keep per-warp state (e.g. a recovery-point table) seed it here
	// once instead of probing a map on every issued instruction.
	OnWarpDispatch func(d *Device, sm *SM, w *Warp)

	// Slots receives scheduler-slot attribution (see SlotSink), one
	// credit per scheduler slot per cycle. Attaching a sink makes the
	// simulator step drained SMs too, to credit their idle slots.
	Slots SlotSink
}

// issueAt reports whether BeforeIssue runs before in issues.
func (h *Hooks) issueAt(in *isa.Inst) bool {
	return h != nil && h.BeforeIssue != nil && (h.IssueAt == nil || h.IssueAt(in))
}

func (h *Hooks) beforeIssue(d *Device, sm *SM, w *Warp) bool {
	if h == nil || h.BeforeIssue == nil {
		return true
	}
	return h.BeforeIssue(d, sm, w)
}

func (h *Hooks) onExecuted(d *Device, sm *SM, w *Warp, pc int) {
	if h != nil && h.OnExecuted != nil {
		h.OnExecuted(d, sm, w, pc)
	}
}

func (h *Hooks) onAtomic(d *Device, sm *SM, w *Warp, space isa.Space, addr, old uint32, lane int) {
	if h != nil && h.OnAtomic != nil {
		h.OnAtomic(d, sm, w, space, addr, old, lane)
	}
}

func (h *Hooks) onCycle(d *Device) {
	if h != nil && h.OnCycle != nil {
		h.OnCycle(d)
	}
}

func (h *Hooks) onWarpDispatch(d *Device, sm *SM, w *Warp) {
	if h != nil && h.OnWarpDispatch != nil {
		h.OnWarpDispatch(d, sm, w)
	}
}
