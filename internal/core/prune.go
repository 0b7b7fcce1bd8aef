// Trial pruning: pre-classify injection trials whose armed strike
// provably cannot change final memory, control flow, timing, or the
// detection outcome, without running the simulator. The simulator is
// deterministic, so a trial's pre-injection execution IS the golden
// schedule: recording the golden run's per-instruction event stream once
// (under the scheme's own controller hooks, so RBQ stalls and boundary
// verification shape it exactly as a trial would see it) lets a cheap
// walker run the injector's strike model (flame.Sites) — including its
// lane, bit, and sensor-delay RNG draws — against that schedule and
// decide, for each would-be strike, whether the corrupted register is
// dead (statically outside the store-reach slice, or dynamically never
// read again by the struck lane) AND whether its sensor report escapes
// the main launch. Trials where every fired strike is dead and
// undetected are Masked with golden-identical results; trials whose
// strikes never fire are NoInjection. Everything else is simulated.
//
// Detecting (runtime-controller) schemes are handled by a static
// detection-outcome model rather than a gate. Detection is
// value-independent: Controller.onCycle calls Injector.Reports at
// the end of every cycle of the main launch, while Steps never see the
// injector (the engine attaches it to the main launch only). A strike
// fired at cycle c with sensor delay delta therefore recovers iff
// c+delta <= the main launch's last cycle — equivalently
// c+delta < Golden.MainCycles, the launch's cycle count — and a dead
// strike whose report comes due after the main launch retired is Masked
// with the golden's timing, bit for bit.
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
package core

import (
	"fmt"
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
	mask uint32 // the event's strike lanes (flame.StrikeLanes)
	pc   int32
	warp int32 // warp slot within its SM (stable, printed in descriptions)
	sm   int32
}

// DefaultPruneEventCap bounds the recorded schedule (events are 24
// bytes; the default caps a benchmark's index near 100 MB).
const DefaultPruneEventCap = 4 << 20

// PruneIndex is the per-benchmark pruning oracle: the golden schedule
// and the per-event vulnerable lanes; the dataflow slices are the
// golden's strike model (Golden.Sites).
type PruneIndex struct {
	events []pruneEvent
	// vuln[i] is the lane mask of event i's destination-register copies
	// that some later instruction of the same warp slot reads before an
	// overwriting def. Registers are lane-private (the ISA has no
	// cross-lane reads), so a strike on a lane outside vuln[i] corrupts
	// a value that lane never observes again. Zero when event i defines
	// nothing.
	vuln []uint32
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
	px := &PruneIndex{}
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
	return px
}

// disable turns pruning off for the benchmark and drops the schedule.
func (px *PruneIndex) disable(reason string) {
	px.events = nil
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
// sensor report that provably escapes the main launch. It walks the
// recorded schedule through the golden's strike model (Golden.Sites)
// event for event, drawing what the injector draws, so a pruned
// TrialResult is bit-identical (every field, including the
// Description) to what Engine.RunTrial would have produced. The second
// return is false when the trial must be simulated.
func (px *PruneIndex) PruneTrial(g *Golden, ts TrialSpec) (*TrialResult, bool) {
	if px == nil || px.disabled != "" {
		return nil, false
	}
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
			h, ok := g.Sites.Fire(rng, ts.Model, int(ev.pc), ev.mask)
			if !ok {
				continue // stays armed
			}
			if h.Kind == flame.StoreSite {
				return nil, false // corrupts memory directly; simulate
			}
			// Register strike: prunable iff the corrupted value is dead —
			// statically outside the store-reach slice, or never read
			// again by the struck lane (uses at the firing event itself
			// read the pre-corruption value: Observe runs post-execute).
			// Registers are lane-private, so only the struck lane's future
			// reads matter.
			if h.Reaches && px.vuln[evi]&(1<<uint(h.Lane)) != 0 {
				return nil, false
			}
			// The static detection-outcome model: the controller probes
			// Injector.Reports on every processed cycle of the main launch
			// (last is g.MainCycles-1) and nowhere afterwards, so a report
			// due before that recovers (simulate) and a later one provably
			// escapes (the strike stays Masked).
			if detectAt := ev.cyc + flame.SensorDelay(rng, g.MaxDelay); px.detecting && detectAt < g.MainCycles {
				return nil, false
			}
			tr.Strikes++
			if h.Excluded {
				tr.ExcludedStrikes++
			}
			if tr.Strikes == 1 {
				tr.Description = g.Sites.Describe(h, ev.cyc, int(ev.warp), int(ev.sm))
			}
			fired = true
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
