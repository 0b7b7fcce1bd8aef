// Package dup implements SwapCodes-style instruction duplication for
// error detection and the tail-DMR hybrid scheme (Section V-B).
//
// SwapCodes pairs each original instruction's output with the ECC code of
// a replica's output, so no explicit compare instructions are needed; the
// cost is the replica's issue slot. The replica reads the original's
// sources and writes a shadow register, so it never perturbs
// architectural state. Loads, stores, atomics, branches and
// synchronization are not replicated (the paper's "plain SwapCodes":
// memory and control are covered by ECC and hardened AGUs).
package dup

import (
	"flame/internal/isa"
)

// Stats reports what a duplication pass did.
type Stats struct {
	// Replicas is the number of replica instructions inserted.
	Replicas int
	// Eligible is the number of instructions eligible for duplication.
	Eligible int
}

// Full duplicates every eligible instruction in the program (the
// Duplication+X schemes). It mutates the program.
func Full(p *isa.Program, tr *isa.EditTrace) (Stats, error) {
	return apply(p, tr, func(int) bool { return true })
}

// Tail implements tail-DMR: within each region, only the trailing
// instructions whose duplicated execution covers the sensor WCDL are
// replicated, so every error is detected before the region ends — the
// head by the sensors, the tail by DMR — and no verification delay is
// needed between regions.
//
// The tail length is sized so that the post-DMR tail execution time
// approximates WCDL issue cycles: each replicated instruction adds one
// issue slot, so the last ceil(wcdl/2) instructions of each region are
// marked (capped at the region length).
func Tail(p *isa.Program, wcdl int, tr *isa.EditTrace) (Stats, error) {
	if wcdl < 0 {
		wcdl = 0
	}
	tailLen := (wcdl + 1) / 2
	inTail := make([]bool, len(p.Insts))
	starts := p.RegionStarts()
	for si, start := range starts {
		end := len(p.Insts)
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		from := end - tailLen
		if from < start {
			from = start
		}
		for i := from; i < end; i++ {
			inTail[i] = true
		}
	}
	return apply(p, tr, func(i int) bool { return inTail[i] })
}

func apply(p *isa.Program, tr *isa.EditTrace, want func(int) bool) (Stats, error) {
	var st Stats
	shadow := isa.Reg(p.NumRegs) // one shadow destination for all replicas
	var plan isa.InsertPlan
	for i := range p.Insts {
		in := &p.Insts[i]
		if !in.Op.Duplicable() {
			continue
		}
		st.Eligible++
		if !want(i) {
			continue
		}
		rep := in.Clone()
		rep.Origin = isa.OrigDup
		rep.Boundary = false
		if rep.Op == isa.OpSetp {
			// Predicate replica: recompute the comparison into the shadow
			// register via selp-style encoding is not expressible; model
			// the replica as a flag-producing compare into the shadow reg.
			rep = isa.Inst{
				Op: isa.OpSub, Guard: in.Guard, Dst: shadow,
				PDst: isa.NoPred, Src: [3]isa.Operand{in.Src[0], in.Src[1]},
				Origin: isa.OrigDup, Target: -1,
			}
		} else {
			rep.Dst = shadow
		}
		plan.Add(i+1, rep)
		st.Replicas++
	}
	if err := plan.ApplyInto(p, tr); err != nil {
		return st, err
	}
	return st, nil
}
