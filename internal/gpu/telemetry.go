package gpu

// Scheduler-slot attribution: every cycle, each warp scheduler of each
// SM owns exactly one issue slot, and that slot is credited to exactly
// one SlotReason. Summed over a run, the credits therefore partition
// the machine's issue capacity — they add up to
// Cycles × Σ_SM SchedulersPerSM — which is what makes the breakdown an
// attribution rather than a sampling: a cycle cannot be double-counted
// or lost.
//
// The simulator does no attribution work unless a SlotSink is attached
// through Hooks.Slots (see internal/telemetry for the standard
// collector); with a nil sink the only cost is one pointer test per
// scheduler scan.

// SlotReason classifies one scheduler slot of one cycle.
//
// A stalled slot (no warp issued although unfinished warps exist) is
// credited to the blocked warp *closest to issuing*, in the fixed
// priority order Scoreboard > Memory > Barrier > RBQ. The consequence
// is deliberate: a slot is credited SlotRBQ only when region-boundary
// suspension was the sole reason nothing could issue, so the RBQ share
// directly measures the detection latency the WCDL-aware scheduler
// failed to hide behind other warps' work.
type SlotReason uint8

const (
	// SlotIssued: the scheduler issued an instruction this cycle.
	SlotIssued SlotReason = iota
	// SlotScoreboard: blocked on pending register/predicate writes.
	SlotScoreboard
	// SlotMemory: blocked on a structural hazard — LSU or SFU busy, or
	// the MSHR file full.
	SlotMemory
	// SlotBarrier: every otherwise-runnable warp waits at a block barrier.
	SlotBarrier
	// SlotRBQ: every otherwise-runnable warp is suspended by a
	// resilience hook (region-boundary queue / WCDL wait), or was vetoed
	// by BeforeIssue this cycle (conveyor full).
	SlotRBQ
	// SlotEmpty: the scheduler's warp partition has no unfinished warps,
	// but other partitions of the SM still do.
	SlotEmpty
	// SlotDrained: the whole SM has no resident live warps (grid tail).
	SlotDrained

	NumSlotReasons
)

var slotReasonNames = [NumSlotReasons]string{
	SlotIssued:     "issued",
	SlotScoreboard: "scoreboard",
	SlotMemory:     "memory",
	SlotBarrier:    "barrier",
	SlotRBQ:        "rbq",
	SlotEmpty:      "empty",
	SlotDrained:    "drained",
}

// String returns the reason's report name.
func (r SlotReason) String() string {
	if int(r) < len(slotReasonNames) {
		return slotReasonNames[r]
	}
	return "reason(?)"
}

// SlotSink receives scheduler-slot attribution credits. CreditSlot
// books the slot of scheduler (smID, sched) at `cycle`: reason r caused
// by the SM-local warp slot `warp` (the issuing warp for SlotIssued, the
// closest-to-issue blocked warp for stall reasons, -1 when no warp is
// implicated — SlotEmpty and SlotDrained).
//
// Implementations must not mutate simulator state; they are called
// mid-cycle from the scheduler scan.
type SlotSink interface {
	CreditSlot(smID, sched, warp int, r SlotReason, cycle int64)
}

// teeSlots fans credits out to two sinks (CombineHooks).
type teeSlots struct{ a, b SlotSink }

func (t teeSlots) CreditSlot(smID, sched, warp int, r SlotReason, cycle int64) {
	t.a.CreditSlot(smID, sched, warp, r, cycle)
	t.b.CreditSlot(smID, sched, warp, r, cycle)
}

// combineSlots merges two optional sinks into one.
func combineSlots(a, b SlotSink) SlotSink {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return teeSlots{a, b}
}
