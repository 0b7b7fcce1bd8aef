// Package checkpoint implements Penny-style live-out register
// checkpointing, the alternative recovery-enabling technique the paper
// compares against register renaming (Section II-C2). After the last
// in-region definition of each live-out register, the pass inserts a
// checkpoint store to a per-thread local-memory slot. At recovery time
// the runtime restores region inputs from the committed checkpoint slots
// and re-executes from the recovery PC.
//
// The pass applies Penny's pruning ideas in simplified form: only
// registers live across a region boundary are checkpointed, shadowed
// unconditional definitions are skipped, predicated definitions carry
// their own guard, and slots are assigned automatically in local memory.
// Stores go either right after each definition or grouped at region ends
// (Penny's checkpoint scheduling) — see Placement.
package checkpoint

import (
	"fmt"
	"sort"

	"flame/internal/analysis"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// Result describes the inserted checkpoints.
type Result struct {
	// Stores is the number of checkpoint stores inserted.
	Stores int
	// Slots maps each checkpointed register to its local-memory slot
	// byte offset.
	Slots map[isa.Reg]int32
	// SlotBase is the byte offset in local memory where checkpoint
	// storage begins (after pre-existing local data).
	SlotBase int32
}

// Placement selects where checkpoint stores are inserted.
type Placement uint8

// Checkpoint store placements.
const (
	// AtDef inserts each checkpoint immediately after the definition it
	// saves (the default; always valid).
	AtDef Placement = iota
	// AtRegionEnd groups unpredicated checkpoints just before the
	// region's terminating boundary, as in the paper's Figure 3(b)
	// ("2c"/"6c" groups) — Penny's checkpoint scheduling. Predicated
	// checkpoints stay at their definitions (their guard may be
	// overwritten before the region ends).
	AtRegionEnd
)

// Apply inserts checkpoint stores into a region-annotated program,
// mutating it. Predicate anti-dependences must already have been cut by
// region formation; register anti-dependences are circumvented by the
// checkpoints (recovery restores the inputs), so unlike renaming this
// pass leaves the register WARs in place.
func Apply(p *isa.Program) (*Result, error) {
	return ApplyPlaced(p, AtDef, nil)
}

// ApplyPlaced is Apply with an explicit checkpoint placement policy. The
// inserted stores are recorded into tr (which may be nil) so callers can
// remap instruction-indexed metadata such as extended-section spans.
func ApplyPlaced(p *isa.Program, place Placement, tr *isa.EditTrace) (*Result, error) {
	g := kernel.Build(p)
	lv := analysis.ComputeLiveness(g)

	// Registers live into any region boundary (or out of any exit). A
	// register updated in a region and live at some boundary may be a
	// later region's input, so its latest value must be checkpointed —
	// recovery restores every committed slot, and a stale slot would
	// rewind an input that a verified region legitimately advanced (the
	// classic loop-counter hazard). Computing liveness against all
	// boundaries at once over-approximates per-region live-out sets,
	// which costs some extra checkpoint stores but is always safe.
	liveAtBoundary := analysis.NewBitSet(p.NumRegs)
	for i := range p.Insts {
		if p.Insts[i].Boundary {
			liveAtBoundary.Union(lv.LiveBefore(i))
		}
		if p.Insts[i].Op == isa.OpExit {
			liveAtBoundary.Union(lv.LiveAfter(i))
		}
	}

	// For each linear region span, checkpoint the defs of boundary-live
	// registers. Penny-style pruning: an unpredicated def shadowed by a
	// later unpredicated def of the same register in the same span needs
	// no checkpoint. Predicated defs are always checkpointed — with the
	// def's own guard, so only lanes that executed the def update the
	// slot.
	type ckpt struct {
		def     int
		spanEnd int
		reg     isa.Reg
		guard   isa.Guard
	}
	var ckpts []ckpt
	starts := p.RegionStarts()
	for si, start := range starts {
		end := len(p.Insts)
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		lastUnpred := map[isa.Reg]int{}
		for i := start; i < end; i++ {
			in := &p.Insts[i]
			if d := in.Defs(); d != isa.NoReg && !in.Guard.Valid() {
				lastUnpred[d] = i
			}
		}
		for i := start; i < end; i++ {
			in := &p.Insts[i]
			d := in.Defs()
			if d == isa.NoReg || !liveAtBoundary.Has(int(d)) {
				continue
			}
			if !in.Guard.Valid() && lastUnpred[d] != i {
				continue // shadowed by a later unconditional def
			}
			if in.Guard.Valid() && lastUnpred[d] > i {
				continue // an unconditional def after it wins in every lane
			}
			ckpts = append(ckpts, ckpt{def: i, spanEnd: end, reg: d, guard: in.Guard})
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].def < ckpts[j].def })

	res := &Result{Slots: map[isa.Reg]int32{}, SlotBase: int32(p.LocalBytes)}
	var plan isa.InsertPlan
	for _, c := range ckpts {
		slot, ok := res.Slots[c.reg]
		if !ok {
			slot = res.SlotBase + int32(4*len(res.Slots))
			res.Slots[c.reg] = slot
		}
		st := isa.Inst{
			Op:     isa.OpSt,
			Guard:  c.guard,
			Dst:    isa.NoReg,
			PDst:   isa.NoPred,
			Space:  isa.SpaceLocal,
			Off:    slot,
			Origin: isa.OrigCheckpoint,
			Target: -1,
		}
		st.Src[0] = isa.Imm(0) // absolute local address: [slot]
		st.Src[1] = isa.R(c.reg)
		at := c.def + 1
		if place == AtRegionEnd && !c.guard.Valid() {
			// Group the store at the region end, but before any trailing
			// control transfer (a back edge must still execute it).
			at = c.spanEnd
			for at > c.def+1 {
				op := p.Insts[at-1].Op
				if op == isa.OpBra || op == isa.OpExit {
					at--
					continue
				}
				break
			}
		}
		plan.Add(at, st)
		res.Stores++
	}
	if err := plan.ApplyInto(p, tr); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	p.LocalBytes = int(res.SlotBase) + 4*len(res.Slots)
	return res, nil
}
