package gpu

import (
	"fmt"
	"math/bits"

	"flame/internal/isa"
)

// structBusy reports whether a structural hazard of class hz blocks
// issue at the cycle: the LSU busy or the MSHR file full for memory
// ops, the SFU busy for SFU ops. It is the per-warp statement of the
// rule structBlocked applies to every slot at once.
func (sm *SM) structBusy(hz uint8, cycle int64) bool {
	return hz&hzLSU != 0 && (sm.lsuBusyUntil > cycle || hz&hzMSHR != 0 && !sm.mshrAvailable()) ||
		hz&hzSFU != 0 && sm.sfuBusyUntil > cycle
}

// ScanCoverage counts what CheckIssueScan compared, so a test can
// require that every class actually occurred.
type ScanCoverage struct {
	Slots, Scoreboard, Struct, Hook int
}

// CheckIssueScan checks every SM's issue-scan masks against a
// from-scratch classification at d.Cyc. For each live slot whose gate
// is memoized it recomputes, from the instruction itself and the
// warp's regReady and predReady, the scoreboard bound and the hazard
// class, and requires the memo to hold that bound, sbWait to hold the
// slot iff the bound lies after d.Cyc, the lsu, mshr, sfu and hook
// masks to match the instruction, and structBlocked to agree with
// structBusy. It also requires sbWait to lie inside valid and sbNext
// not to pass any entry's bound.
func CheckIssueScan(d *Device, cov *ScanCoverage) error {
	cyc := d.Cyc
	for _, sm := range d.SMs {
		if sm.sbWait&^sm.valid != 0 {
			return fmt.Errorf("cycle %d SM %d: sbWait %#x outside valid %#x", cyc, sm.ID, sm.sbWait, sm.valid)
		}
		blocked := sm.structBlocked(cyc)
		for m := sm.live & sm.valid; m != 0; m &= m - 1 {
			wi := bits.TrailingZeros64(m)
			bit := uint64(1) << uint(wi)
			w := sm.Warps[wi]
			in := &d.launch.Prog.Insts[w.PC()]
			var at int64
			var regs [3]isa.Reg
			for _, r := range in.Uses(regs[:0]) {
				at = max(at, w.regReady[r])
			}
			if r := in.Defs(); r != isa.NoReg {
				at = max(at, w.regReady[r])
			}
			var preds [2]isa.PredReg
			for _, p := range in.UsesPred(preds[:0]) {
				at = max(at, w.predReady[p])
			}
			if p := in.DefsPred(); p != isa.NoPred {
				at = max(at, w.predReady[p])
			}
			var hz uint8
			if in.Op.IsMemory() {
				hz |= hzLSU
				if in.Space == isa.SpaceGlobal {
					hz |= hzMSHR
				}
			}
			if in.Op.IsSFU() {
				hz |= hzSFU
			}
			hook := d.hooks.issueAt(in)
			fail := func(format string, args ...any) error {
				return fmt.Errorf("cycle %d SM %d slot %d pc %d (%s): %s",
					cyc, sm.ID, wi, w.PC(), in.Op, fmt.Sprintf(format, args...))
			}
			switch {
			case sm.gate[wi] != at:
				return fail("memoized scoreboard bound %d, recomputed %d", sm.gate[wi], at)
			case sm.sbWait&bit != 0 != (at > cyc):
				return fail("in sbWait = %v, bound %d", sm.sbWait&bit != 0, at)
			case sm.sbWait&bit != 0 && at < sm.sbNext:
				return fail("sbNext %d passes bound %d", sm.sbNext, at)
			case sm.lsu&bit != 0 != (hz&hzLSU != 0), sm.mshr&bit != 0 != (hz&hzMSHR != 0), sm.sfu&bit != 0 != (hz&hzSFU != 0):
				return fail("class masks lsu/mshr/sfu = %v/%v/%v, hazard class %#x",
					sm.lsu&bit != 0, sm.mshr&bit != 0, sm.sfu&bit != 0, hz)
			case sm.hook&bit != 0 != hook:
				return fail("in hook mask = %v, declared %v", sm.hook&bit != 0, hook)
			case blocked&bit != 0 != sm.structBusy(hz, cyc):
				return fail("structBlocked = %v, structBusy = %v", blocked&bit != 0, !(blocked&bit != 0))
			}
			cov.Slots++
			if at > cyc {
				cov.Scoreboard++
			}
			if blocked&bit != 0 {
				cov.Struct++
			}
			if hook {
				cov.Hook++
			}
		}
	}
	return nil
}
