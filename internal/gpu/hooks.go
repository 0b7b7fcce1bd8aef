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
	//
	// Attaching OnCycle disables event-driven cycle skipping unless
	// OnAdvance is also provided: the simulator cannot know which idle
	// cycles a per-cycle consumer cares about.
	OnCycle func(d *Device)

	// OnAdvance makes an OnCycle consumer fast-forward safe. When every
	// scheduler is stalled, the simulator proposes advancing the clock
	// from cycle `from` directly to cycle `to` (skipping the OnCycle
	// calls for cycles from..to-1, which are credited as stall cycles).
	// The hook returns the earliest cycle in [from, to] at which its
	// OnCycle stops being a no-op — d.Cyc jumps there and per-cycle
	// simulation resumes. Returning `from` vetoes the skip entirely.
	//
	// OnAdvance is a bound query, not a notification: it may be invoked
	// with a larger `to` than the clock finally advances by (another
	// hook or SM may clamp harder), so it must not mutate state based on
	// the proposed range. Observe the actual position via d.Cyc at the
	// next callback.
	OnAdvance func(d *Device, from, to int64) int64

	// OnBlockDone runs when a thread block retires from an SM.
	OnBlockDone func(d *Device, sm *SM, globalBlock int)

	// OnWarpDispatch runs when a warp is placed on an SM, after its
	// state is fully initialized and before it can issue. Schemes that
	// keep per-warp state (e.g. a recovery-point table) seed it here
	// once instead of probing a map on every issued instruction.
	OnWarpDispatch func(d *Device, sm *SM, w *Warp)

	// Slots receives scheduler-slot attribution (see SlotSink). Unlike
	// OnCycle, attaching a sink keeps event-driven cycle skipping
	// enabled: the simulator bulk-credits skipped spans through the same
	// classification the per-cycle scan uses, clamping each skip to the
	// first cycle any warp could reclassify, so sink totals are
	// bit-identical with and without skipping.
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

func (h *Hooks) onBlockDone(d *Device, sm *SM, gb int) {
	if h != nil && h.OnBlockDone != nil {
		h.OnBlockDone(d, sm, gb)
	}
}

func (h *Hooks) onWarpDispatch(d *Device, sm *SM, w *Warp) {
	if h != nil && h.OnWarpDispatch != nil {
		h.OnWarpDispatch(d, sm, w)
	}
}

// onAdvance resolves the hook set's fast-forward bound for a proposed
// jump from cycle `from` to cycle `to`: the hook's answer clamped into
// [from, to], `from` (no skip) for an OnCycle consumer without an
// OnAdvance contract, and `to` (no objection) otherwise.
func (h *Hooks) onAdvance(d *Device, from, to int64) int64 {
	if h == nil {
		return to
	}
	if h.OnAdvance != nil {
		t := h.OnAdvance(d, from, to)
		if t < from {
			return from
		}
		if t > to {
			return to
		}
		return t
	}
	if h.OnCycle != nil {
		return from
	}
	return to
}
