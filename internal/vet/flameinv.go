package vet

import (
	"fmt"
	"sort"

	"flame/internal/analysis"
	"flame/internal/isa"
	"flame/internal/kernel"
	"flame/internal/regions"
)

// regionCtx maps instruction indices to region and section indices for
// diagnostics.
type regionCtx struct {
	starts   []int
	sections []regions.Section
}

func newRegionCtx(p *isa.Program, sections []regions.Section) *regionCtx {
	return &regionCtx{starts: p.RegionStarts(), sections: sections}
}

// regionOf returns the static region index containing instruction i.
func (rc *regionCtx) regionOf(i int) int {
	r := sort.SearchInts(rc.starts, i+1) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// sectionOf returns the extended-section index containing i, or -1.
func (rc *regionCtx) sectionOf(i int) int {
	for si, s := range rc.sections {
		if s.Contains(i) {
			return si
		}
	}
	return -1
}

// flameInvariants runs the pass-2 checks on a scheme-compiled program:
// sync isolation, in-region WAR freedom, residual post-rename WARs,
// checkpoint completeness/slot consistency, and the WCDL budget.
func flameInvariants(t *Target, rep *Report) {
	if !t.Regions {
		return
	}
	p := t.Prog
	rc := newRegionCtx(p, t.Sections)
	add := func(check string, sev Severity, inst int, msg string) {
		d := Diagnostic{
			Check: check, Severity: sev, Kernel: p.Name, Scheme: t.SchemeName,
			Inst: inst, Region: -1, Section: -1, Msg: msg,
		}
		if inst >= 0 && inst < len(p.Insts) {
			d.Line = p.Insts[inst].Line
			d.Asm = p.Insts[inst].String()
			d.Region = rc.regionOf(inst)
			d.Section = rc.sectionOf(inst)
		}
		rep.Add(d)
	}

	// Anti-dependence and sync-isolation invariants. Register WARs are
	// tolerated under checkpointing (recovery restores the inputs); under
	// renaming they mean the rename pass missed a rewrite.
	for _, pr := range regions.CheckIdempotence(p, t.Sections, !t.Renaming) {
		switch pr.Kind {
		case regions.ProblemSyncBefore:
			add("sync-boundary", Error, pr.Inst,
				"synchronization primitive lacks a region boundary before it")
		case regions.ProblemSyncAfter:
			add("sync-boundary", Error, pr.Inst,
				"synchronization primitive lacks a region boundary after it")
		case regions.ProblemMemWAR:
			add("idempotence-mem", Error, pr.Inst,
				fmt.Sprintf("store may overwrite a location read at %d in the same region (re-execution would read the clobbered value)", pr.V.Load))
		case regions.ProblemPredWAR:
			add("idempotence-pred", Error, pr.Inst,
				fmt.Sprintf("instruction overwrites region-input predicate %s read earlier in the region", pr.V.Pred))
		case regions.ProblemRegWAR:
			add("residual-war", Error, pr.Inst,
				fmt.Sprintf("register anti-dependence on %s survived the renaming pass: re-execution would read the overwritten value", pr.V.Reg))
		}
	}

	if t.Checkpointing {
		checkpointComplete(t, rc, add)
		checkpointSlots(t, add)
	}
	if t.WCDL > 0 {
		wcdlBudget(t, rc, add)
	}
}

// checkpointComplete re-derives the checkpoint obligations of the
// compiled program — the same algorithm the checkpoint pass runs: in each
// linear region span, every definition of a register live at some region
// boundary must be followed (within the span) by a checkpoint save of
// that register under the same guard, modulo Penny's shadowed-definition
// pruning — and reports every obligation with no matching save. The
// re-derivation is safe on the compiled program because checkpoint stores
// and duplication replicas neither define boundary-live registers nor
// extend liveness across boundaries.
func checkpointComplete(t *Target, rc *regionCtx, add func(string, Severity, int, string)) {
	p := t.Prog
	g := kernel.Build(p)
	lv := analysis.ComputeLiveness(g)

	nr := p.NumRegs
	if nr == 0 {
		nr = 1
	}
	liveAtBoundary := analysis.NewBitSet(nr)
	for i := range p.Insts {
		if p.Insts[i].Boundary {
			liveAtBoundary.Union(lv.LiveBefore(i))
		}
		if p.Insts[i].Op == isa.OpExit {
			liveAtBoundary.Union(lv.LiveAfter(i))
		}
	}

	starts := rc.starts
	for si, start := range starts {
		end := len(p.Insts)
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		lastUnpred := map[isa.Reg]int{}
		for i := start; i < end; i++ {
			in := &p.Insts[i]
			if in.Origin == isa.OrigCheckpoint {
				continue
			}
			if d := in.Defs(); d != isa.NoReg && !in.Guard.Valid() {
				lastUnpred[d] = i
			}
		}
		for i := start; i < end; i++ {
			in := &p.Insts[i]
			if in.Origin == isa.OrigCheckpoint {
				continue
			}
			d := in.Defs()
			if d == isa.NoReg || !liveAtBoundary.Has(int(d)) {
				continue
			}
			if !in.Guard.Valid() && lastUnpred[d] != i {
				continue // shadowed by a later unconditional def
			}
			if in.Guard.Valid() && lastUnpred[d] > i {
				continue // a later unconditional def wins in every lane
			}
			if !savedInSpan(p, i, end, d, in.Guard) {
				add("checkpoint-complete", Error, i,
					fmt.Sprintf("%s is live across a region boundary but this definition has no checkpoint save before the span ends at %d: recovery would restore a stale value", d, end))
			}
		}
	}
}

// savedInSpan reports whether a checkpoint store of reg under the given
// guard exists in (def, end).
func savedInSpan(p *isa.Program, def, end int, reg isa.Reg, guard isa.Guard) bool {
	for j := def + 1; j < end && j < len(p.Insts); j++ {
		in := &p.Insts[j]
		if in.Origin == isa.OrigCheckpoint && in.Op == isa.OpSt &&
			in.Src[1].Kind == isa.OperReg && in.Src[1].Reg == reg && in.Guard == guard {
			return true
		}
	}
	return false
}

// checkpointSlots validates the checkpoint stores themselves: local
// space, absolute addressing, consistent per-register slots matching the
// compiled slot map, inside the local-memory footprint, and not shared
// between registers.
func checkpointSlots(t *Target, add func(string, Severity, int, string)) {
	p := t.Prog
	seen := map[isa.Reg]int32{}  // reg -> slot observed in code
	owner := map[int32]isa.Reg{} // slot -> first reg observed
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Origin != isa.OrigCheckpoint {
			continue
		}
		if in.Op != isa.OpSt || in.Space != isa.SpaceLocal {
			add("checkpoint-slots", Error, i, "checkpoint instruction is not a local-memory store")
			continue
		}
		if in.Src[0].Kind != isa.OperImm || in.Src[0].Imm != 0 {
			add("checkpoint-slots", Error, i, "checkpoint store must use absolute local addressing [0+slot]")
			continue
		}
		if in.Src[1].Kind != isa.OperReg {
			add("checkpoint-slots", Error, i, "checkpoint store saves a non-register operand")
			continue
		}
		reg, slot := in.Src[1].Reg, in.Off
		if int(slot)+4 > p.LocalBytes || slot < 0 {
			add("checkpoint-slots", Error, i,
				fmt.Sprintf("checkpoint slot %d outside the local-memory footprint %d", slot, p.LocalBytes))
		}
		if prev, ok := seen[reg]; ok && prev != slot {
			add("checkpoint-slots", Error, i,
				fmt.Sprintf("%s is checkpointed to two different slots (%d and %d)", reg, prev, slot))
		}
		seen[reg] = slot
		if o, ok := owner[slot]; ok && o != reg {
			add("checkpoint-slots", Error, i,
				fmt.Sprintf("checkpoint slot %d is shared by %s and %s", slot, o, reg))
		} else {
			owner[slot] = reg
		}
		if t.CkptSlots != nil {
			want, ok := t.CkptSlots[reg]
			if !ok {
				add("checkpoint-slots", Error, i,
					fmt.Sprintf("%s has a checkpoint store but no entry in the compiled slot map (recovery would not restore it)", reg))
			} else if want != slot {
				add("checkpoint-slots", Error, i,
					fmt.Sprintf("checkpoint store targets slot %d but the slot map restores %s from %d", slot, reg, want))
			}
		}
	}
	if t.CkptSlots != nil {
		for reg := range t.CkptSlots {
			if _, ok := seen[reg]; !ok {
				add("checkpoint-slots", Error, -1,
					fmt.Sprintf("slot map entry for %s has no checkpoint store in the program", reg))
			}
		}
	}
}

// wcdlBudget computes each region's worst-case static length — the
// longest instruction path from the region start that does not cross a
// boundary — and warns when it exceeds the sensor detection-latency
// budget (the paper sizes regions so a region's execution covers the
// WCDL; far larger regions delay the recovery-PC advance and stretch the
// re-execution cost after a strike). A boundary-free cycle makes a region
// unbounded, which is reported once at the region start.
func wcdlBudget(t *Target, rc *regionCtx, add func(string, Severity, int, string)) {
	p := t.Prog
	n := len(p.Insts)
	const (
		stUnvisited = 0
		stOnStack   = 1
		stDone      = 2
	)
	state := make([]uint8, n)
	longest := make([]int, n) // longest boundary-free path starting at i
	unbounded := make([]bool, n)

	succs := func(i int) []int {
		in := &p.Insts[i]
		var out []int
		switch {
		case in.Op == isa.OpBra:
			out = append(out, in.Target)
			if in.Guard.Valid() && i+1 < n {
				out = append(out, i+1)
			}
		case in.Op == isa.OpExit && !in.Guard.Valid():
		default:
			if i+1 < n {
				out = append(out, i+1)
			}
		}
		return out
	}

	var walk func(i int) (int, bool)
	walk = func(i int) (int, bool) {
		if state[i] == stDone {
			return longest[i], unbounded[i]
		}
		if state[i] == stOnStack {
			return 0, true // boundary-free cycle
		}
		state[i] = stOnStack
		best, unb := 0, false
		for _, s := range succs(i) {
			if p.Insts[s].Boundary {
				continue // the region ends there
			}
			l, u := walk(s)
			if l > best {
				best = l
			}
			unb = unb || u
		}
		state[i] = stDone
		longest[i], unbounded[i] = 1+best, unb
		return longest[i], unbounded[i]
	}

	for _, start := range rc.starts {
		if start >= n {
			continue
		}
		l, unb := walk(start)
		switch {
		case unb:
			add("wcdl-budget", Warning, start,
				"region contains a boundary-free cycle: its dynamic length is unbounded and the recovery PC cannot advance inside the loop")
		case l > t.WCDL:
			add("wcdl-budget", Warning, start,
				fmt.Sprintf("region worst-case length %d instruction(s) exceeds the WCDL budget of %d", l, t.WCDL))
		}
	}
}
