// Trial pruning: pre-classify injection trials whose armed strike
// provably cannot change final memory, control flow, timing, or the
// detection outcome, without running the simulator. The simulator is
// deterministic, so a trial's pre-injection execution IS the golden
// schedule: recording the golden run's per-instruction event stream once
// (under the scheme's own controller hooks, so RBQ stalls and boundary
// verification shape it exactly as a trial would see it) lets a cheap
// walker replay the injector's strike-placement logic — including its
// lane, bit, and sensor-delay RNG draws — against that schedule and
// decide, for each would-be strike, whether the corrupted register is
// dead (statically outside flame.StoreReachSlice, or dynamically never
// read again by the struck lane) AND whether its sensor report escapes the main
// launch. Trials where every fired strike is dead and undetected are
// Masked with golden-identical results; trials whose strikes never fire
// are NoInjection. Everything else is simulated.
//
// Detecting (runtime-controller) schemes are handled by a static
// detection-outcome model rather than a gate. Detection is
// value-independent: Controller.onCycle calls Injector.DetectionDue at
// the end of every processed cycle of the main launch (and OnAdvance
// bounds cycle skips to NextDetection, so a due detection is never
// jumped over), while Steps never see the injector (the engine attaches
// it to the main launch only). A strike fired at cycle c with sensor
// delay delta therefore recovers iff c+delta <= the main launch's last
// processed cycle — equivalently c+delta < mainCycles, the launch's
// cycle count — and a dead strike whose report comes due after the main
// launch retired is Masked with the golden's timing, bit for bit.
// Anything detected in-window re-executes, so those trials simulate.
//
// Remaining soundness gates (any failure disables pruning for the
// benchmark, and the campaign falls back to full simulation):
//
//   - Every program in the workload (main kernel and Steps) must be
//     definitely-assigned: liveness at the entry block is empty, so no
//     block or later launch reads a register it did not first write.
//     This is what keeps a dead-corrupted register from leaking across
//     block boundaries on recycled warp register files — and equally
//     what makes SKIPPING a trial safe for the next trial on a pooled
//     engine (the register garbage a simulated trial would have left
//     behind is unobservable either way).
//   - The recorded schedule must fit the event cap (memory guard).
//
// Per-trial, PruneTrial additionally refuses trials with extra hooks
// attached (observers could see the skipped execution).
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"flame/internal/analysis"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// pruneEvent is one executed instruction of the golden main-kernel
// launch, as the injector's Observe hook would have seen it.
type pruneEvent struct {
	cyc  int64
	mask uint32 // executing lanes holding register files (pickLane's set)
	pc   int32
	warp int32 // warp slot within its SM (stable, printed in descriptions)
	sm   int32
}

// DefaultPruneEventCap bounds the recorded schedule (events are 24
// bytes; the default caps a benchmark's index near 100 MB).
const DefaultPruneEventCap = 4 << 20

// PruneIndex is the per-benchmark pruning oracle: the golden schedule,
// the last-use table, and the dataflow slices.
type PruneIndex struct {
	events  []pruneEvent
	lastUse map[uint64][]int32 // warpKey -> reg -> last reading event seq+1
	// vuln[i] is the lane mask of event i's destination-register copies
	// that some later instruction of the same warp slot reads before an
	// overwriting def: the per-lane refinement of the last-use table.
	// Registers are lane-private (the ISA has no cross-lane reads), so a
	// strike on a lane outside vuln[i] corrupts a value that lane never
	// observes again. Zero when event i defines nothing.
	vuln       []uint32
	storeReach map[isa.Reg]bool
	acl        map[isa.Reg]bool
	window     int64
	maxDelay   int
	// mainCycles is the golden main launch's cycle count; its last
	// processed cycle is mainCycles-1, the final DetectionDue probe.
	mainCycles int64
	// detecting marks schemes whose controller turns an in-window
	// sensor report into a recovery (strikes must escape the main
	// launch to stay prunable).
	detecting bool
	disabled  string // non-empty: why pruning is off for this benchmark
}

// Disabled returns the reason pruning is unavailable for this
// benchmark, or "" when the index is live.
func (px *PruneIndex) Disabled() string {
	if px == nil {
		return ""
	}
	return px.disabled
}

// Events returns the recorded golden schedule length (0 when disabled).
func (px *PruneIndex) Events() int { return len(px.events) }

func warpKey(smID, warpID int32) uint64 {
	return uint64(uint32(smID))<<32 | uint64(uint32(warpID))
}

// BuildPruneIndex records the golden main-kernel schedule for a
// workload by replaying the golden's main launch, and prepares the
// pruning oracle. Campaigns get the same index from Prepare, which
// records it during the golden run itself. eventCap <= 0 selects
// DefaultPruneEventCap. A disabled index is still returned (never nil):
// PruneTrial on it refuses every trial and Disabled says why.
func BuildPruneIndex(cfg gpu.Config, spec *KernelSpec, g *Golden, eventCap int) *PruneIndex {
	r := newRecorder(g, spec.Name, Want{Prune: true, EventCap: eventCap})
	if err := r.replay(cfg, spec, g); err != nil {
		r.px.disable(fmt.Sprintf("golden recording failed: %v", err))
	}
	px, _ := r.finish(g)
	return px
}

// newPruneIndex applies the static soundness gate and returns an index
// ready to record the golden schedule, or one disabled by the gate.
func newPruneIndex(g *Golden) *PruneIndex {
	px := &PruneIndex{maxDelay: g.MaxDelay}
	progs := []*isa.Program{g.Comp.Prog}
	for _, sc := range g.StepComps {
		progs = append(progs, sc.Prog)
	}
	for i, p := range progs {
		lv := analysis.ComputeLiveness(kernel.Build(p))
		if lv.LiveIn[0].Count() != 0 {
			px.disabled = fmt.Sprintf("program %d reads registers it did not write (entry liveness %d)", i, lv.LiveIn[0].Count())
			return px
		}
	}
	// The schedule is the main launch's alone: the injector observes
	// nothing else (launchOne attaches it nowhere else). Detecting
	// schemes record under their own injector-less controller, so RBQ
	// descheduling and boundary verification shape the schedule exactly
	// as a trial's controller would.
	px.detecting = g.Comp.Controller() != nil
	px.lastUse = map[uint64][]int32{}
	return px
}

// disable turns pruning off for the benchmark and drops the schedule.
func (px *PruneIndex) disable(reason string) {
	px.events, px.lastUse = nil, nil
	px.disabled = reason
}

// buildVuln computes the per-event vulnerable-lane masks with one
// backward walk over the recorded schedule, maintaining per warp slot a
// future-read lane mask per register (which lanes will read the
// register before an overwriting def). Within one instruction reads
// precede the write, so walking backward the def is killed first and
// the uses are added after — a def that reads itself (add r0, r0, 1)
// still counts as a future read of the previous value. Later launches
// need no terms: the definite-assignment gate already proved no Step
// reads a register it did not first write.
func (px *PruneIndex) buildVuln(prog *isa.Program) {
	px.vuln = make([]uint32, len(px.events))
	future := map[uint64][]uint32{}
	var uses [4]isa.Reg
	for evi := len(px.events) - 1; evi >= 0; evi-- {
		ev := &px.events[evi]
		in := &prog.Insts[ev.pc]
		key := warpKey(ev.sm, ev.warp)
		fr := future[key]
		if fr == nil {
			fr = make([]uint32, prog.NumRegs)
			future[key] = fr
		}
		if d := in.Defs(); d != isa.NoReg {
			px.vuln[evi] = ev.mask & fr[d]
			// Unlike the static solver, a predicated def kills here:
			// ev.mask is lastExec (active ∧ guard), so every lane in it
			// really executed the write.
			fr[d] &^= ev.mask
		}
		for _, r := range in.Uses(uses[:0]) {
			fr[r] |= ev.mask
		}
	}
}

// PruneTrial decides a trial without simulation when every armed strike
// either never fires or fires into a provably dead register with a
// sensor report that provably escapes the main launch. It mirrors
// flame.Injector.Observe event-for-event — including its RNG draws — so
// a pruned TrialResult is bit-identical (every field, including the
// Description) to what Engine.RunTrial would have produced. The second
// return is false when the trial must be simulated.
func (px *PruneIndex) PruneTrial(g *Golden, ts TrialSpec) (*TrialResult, bool) {
	if px == nil || px.disabled != "" || ts.Hooks != nil {
		return nil, false
	}
	prog := g.Comp.Prog
	rng := rand.New(rand.NewSource(ts.Seed))
	tr := &TrialResult{Cycles: g.Window}
	evi := 0
	for _, arm := range ts.Arms {
		fired := false
		for ; evi < len(px.events); evi++ {
			ev := &px.events[evi]
			if ev.cyc < arm {
				continue // Observe returns before any RNG draw
			}
			lanes := bits.OnesCount32(ev.mask)
			if lanes == 0 {
				continue // pickLane finds no lane; stays armed, no draw
			}
			laneIdx := rng.Intn(lanes)
			bit := uint32(1) << uint(rng.Intn(32))
			in := &prog.Insts[ev.pc]
			d := in.Defs()
			switch {
			case d != isa.NoReg && in.Origin != isa.OrigDup &&
				(ts.Model == flame.FullSite || !px.acl[d]):
				// Register-destination strike: prunable iff the corrupted
				// value is dead — statically outside the store-reach
				// slice, or never read again by the struck lane (uses at
				// the firing event itself read the pre-corruption value:
				// Observe runs post-execute). Registers are lane-private,
				// so only the struck lane's future reads matter; the
				// warp-level last-use table is the coarser bound vuln
				// refines.
				lane := nthSetBit(ev.mask, laneIdx)
				if px.storeReach[d] && px.vuln[evi]&(1<<uint(lane)) != 0 {
					return nil, false
				}
				// Mirror Observe's sensor-delay draw, then apply the
				// static detection-outcome model: the controller probes
				// DetectionDue on every processed cycle of the main
				// launch (last is mainCycles-1) and nowhere afterwards,
				// so a report due before that recovers (simulate) and a
				// later one provably escapes (the strike stays Masked).
				detectAt := ev.cyc
				if px.maxDelay > 0 {
					detectAt += 1 + int64(rng.Intn(px.maxDelay))
				}
				if px.detecting && detectAt < px.mainCycles {
					return nil, false
				}
				tr.Strikes++
				if px.acl[d] {
					tr.ExcludedStrikes++
				}
				if tr.Strikes == 1 {
					tr.Description = fmt.Sprintf("cycle %d: flipped bit %#x of %s (lane %d, warp %d, SM %d, inst %d: %s)",
						ev.cyc, bit, d, lane, ev.warp, ev.sm, ev.pc, in.String())
				}
				fired = true
			case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
				// Store-data strike: corrupts memory directly; simulate.
				return nil, false
			default:
				continue // not corruptible; RNG consumed, stays armed
			}
			evi++ // the next strike starts at the next observed event
			break
		}
		if !fired {
			break // this strike never fires, so no later strike arms
		}
	}
	if tr.Strikes == 0 {
		tr.Outcome = OutcomeNoInjection
	} else {
		tr.Outcome = OutcomeMasked
	}
	return tr, true
}

// lastUseOf reads the last-use table defensively: a warp that never
// read any register has no table at all (0 = never read).
func lastUseOf(lu []int32, r isa.Reg) int32 {
	if lu == nil {
		return 0
	}
	return lu[r]
}

// nthSetBit returns the position of the n-th (0-based) set bit of mask,
// mirroring pickLane's lane-list indexing.
func nthSetBit(mask uint32, n int) int {
	for {
		b := bits.TrailingZeros32(mask)
		if n == 0 {
			return b
		}
		mask &^= 1 << uint(b)
		n--
	}
}
