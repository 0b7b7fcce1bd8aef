package flame

import (
	"fmt"
	"math/bits"
	"math/rand"

	"flame/internal/gpu"
	"flame/internal/isa"
)

// SiteKind is what a strike firing on an instruction corrupts.
type SiteKind uint8

const (
	// NoSite: the instruction has no corruptible output under the
	// model; an armed strike stays armed through it.
	NoSite SiteKind = iota
	// RegisterSite: the instruction's destination register.
	RegisterSite
	// StoreSite: the data a global store writes.
	StoreSite
)

// Site is the strike site of one instruction under one fault model.
type Site struct {
	Kind SiteKind
	// Reg is a RegisterSite's destination register (isa.NoReg
	// otherwise).
	Reg isa.Reg
	// Excluded reports that Reg lies in the address/control slice (a
	// RegisterSite only under FullSite).
	Excluded bool
	// Reaches reports that Reg lies in the store-reach slice; a
	// register outside it is dead before any store.
	Reaches bool
}

// Sites is the strike model of one compiled kernel. A particle strike
// corrupts the output of an in-flight instruction: its destination
// register or, for a global store, the data it writes. Sites is the one
// statement of that rule — which instructions a strike may land on
// under each fault model (At), which lanes it may pick (StrikeLanes),
// the order in which it draws lane, bit and sensor delay (Fire,
// SensorDelay), how a register strike is described (Describe), and
// which arm cycles each event of a schedule owns (Walk). The injector,
// the trial pruner, the strata enumeration and the AVF census all read
// it, so a pruned trial, a stratum's weight and a census bucket agree
// with a simulated strike by construction. It is immutable once built
// and safe for concurrent use.
type Sites struct {
	prog  *isa.Program
	reach map[isa.Reg]bool
	site  []Site // per pc, under FullSite
}

// NewSites computes the strike model of prog: a strike lands on an
// instruction that defines a general register (not a SwapCodes
// replica, and outside the address/control slice unless the model is
// FullSite), or on a global store's data.
func NewSites(prog *isa.Program) *Sites {
	acl := dataflowSlice(prog, false)
	s := &Sites{prog: prog, reach: dataflowSlice(prog, true), site: make([]Site, len(prog.Insts))}
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		s.site[pc].Reg = isa.NoReg
		switch d := in.Defs(); {
		case d != isa.NoReg && in.Origin != isa.OrigDup:
			s.site[pc] = Site{Kind: RegisterSite, Reg: d, Excluded: acl[d], Reaches: s.reach[d]}
		case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
			s.site[pc].Kind = StoreSite
		}
	}
	return s
}

// Prog returns the kernel the model describes.
func (s *Sites) Prog() *isa.Program { return s.prog }

// At returns instruction pc's site under model m.
func (s *Sites) At(pc int, m FaultModel) Site {
	if site := s.site[pc]; m == FullSite || !site.Excluded {
		return site
	}
	return Site{Reg: isa.NoReg}
}

// StoreReach returns the store-reach slice (see dataflowSlice). The
// map is shared: callers must not write it.
func (s *Sites) StoreReach() map[isa.Reg]bool { return s.reach }

// StrikeLanes returns the lanes a strike on w's last executed
// instruction may pick: those that executed it and hold a register
// file. A particle corrupts the output of an executing lane; striking a
// diverged or predicated-off lane would fabricate state no
// re-execution repairs. The executing set is the warp's LastExecMask
// (captured at execution), NOT its ActiveMask: when the instruction
// immediately precedes a reconvergence point the stack has already
// popped by OnExecuted time, and the widened mask would let a strike
// land on a lane whose address/data registers were never computed on
// this path. An event with no strike lane never fires a strike.
func StrikeLanes(w *gpu.Warp) uint32 { return w.LastExecMask() & w.RegLanes() }

// Hit is where a strike firing on one event lands.
type Hit struct {
	Site
	PC   int
	Lane int
	Bit  uint32 // the flipped bit, as a mask
}

// Fire is a strike's first two draws at an event: instruction pc
// executed with strike lanes lanes. It draws the lane (uniform over
// lanes), then the bit, and returns the hit; ok is false when the
// strike stays armed through the event — no strike lane (nothing is
// drawn) or no site (both draws are consumed all the same).
func (s *Sites) Fire(rng *rand.Rand, m FaultModel, pc int, lanes uint32) (h Hit, ok bool) {
	n := bits.OnesCount32(lanes)
	if n == 0 {
		return Hit{}, false
	}
	for k := rng.Intn(n); k > 0; k-- {
		lanes &= lanes - 1
	}
	h = Hit{Site: s.At(pc, m), PC: pc, Lane: bits.TrailingZeros32(lanes)}
	h.Bit = uint32(1) << uint(rng.Intn(32))
	return h, h.Kind != NoSite
}

// SensorDelay is a fired strike's third draw: the sensor detection
// delay, uniform in [1, maxDelay], or 0 without a draw when maxDelay is
// 0 (immediate detection).
func SensorDelay(rng *rand.Rand, maxDelay int) int64 {
	if maxDelay <= 0 {
		return 0
	}
	return 1 + int64(rng.Intn(maxDelay))
}

// Describe says what a register hit at cycle cyc on warp slot warp of
// SM sm corrupted, for logs and trial lines.
func (s *Sites) Describe(h Hit, cyc int64, warp, sm int) string {
	return fmt.Sprintf("cycle %d: flipped bit %#x of %s (lane %d, warp %d, SM %d, inst %d: %s)",
		cyc, h.Bit, h.Reg, h.Lane, warp, sm, h.PC, s.prog.Insts[h.PC].String())
}

// ArmWalk assigns the arm cycles [0, span) of a single strike to the
// events of a schedule, fed in the order the injector observes them. A
// strike armed at cycle a fires on the first event at or after a that
// has a strike lane and a site, and eligibility is independent of the
// strike's random draws, so each such event owns the arm cycles after
// the previous one's up to and including its own cycle — none when it
// shares a cycle with an earlier one. Arm cycles past the last are the
// no-injection tail.
type ArmWalk struct {
	sites *Sites
	model FaultModel
	span  int64
	prev  int64 // highest arm cycle already owned
}

// Walk starts an ownership walk over the arm span [0, span) under
// model m.
func (s *Sites) Walk(m FaultModel, span int64) *ArmWalk {
	return &ArmWalk{sites: s, model: m, span: span, prev: -1}
}

// Own feeds one event: instruction pc executed at cycle cyc with strike
// lanes lanes. It returns the event's site and the arm cycles [lo, hi]
// it owns; ok is false when it owns none.
func (w *ArmWalk) Own(cyc int64, pc int, lanes uint32) (site Site, lo, hi int64, ok bool) {
	site = w.sites.At(pc, w.model)
	hi = min(cyc, w.span-1)
	if lanes == 0 || site.Kind == NoSite || hi <= w.prev {
		return site, 0, 0, false
	}
	lo, w.prev = w.prev+1, hi
	return site, lo, hi, true
}

// Exhausted reports that every arm cycle is owned: later events own
// none.
func (w *ArmWalk) Exhausted() bool { return w.prev >= w.span-1 }

// NoInjection is the number of arm cycles no event fed so far owns.
func (w *ArmWalk) NoInjection() int64 { return w.span - (w.prev + 1) }

// dataflowSlice computes, without data, the address/control slice: the
// registers that transitively feed a memory address base or a
// comparison (and through it, control flow). The paper's fault model
// hardens address generation (AGU + RF controller, Section IV) and
// discards wrong-path work via store buffering in the CPU
// predecessors; with immediately-committed GPU stores, a corrupted
// address or predicate input could commit a store that re-execution
// does not overwrite. The DataSlice model therefore injects only into
// the complement — the values idempotent re-execution provably
// repairs — mirroring the paper's effective coverage claim.
//
// With data it computes the store-reach slice: the seeds add every
// register a memory operation reads (store and atomic data too), so
// the slice holds every register whose value can transitively
// influence memory contents, control flow, or timing. Predicates are a
// separate register class written only by setp, so seeding its
// general-register inputs covers every guard and selp consumer. A
// register OUTSIDE this slice is dead-before-store: flipping a bit in
// it can change other non-slice registers, but never a store address,
// store data, predicate, branch, or latency — so final global memory
// and the cycle count stay bit-identical to the golden run. This is the
// static certificate behind campaign trial pruning; the
// address/control slice is contained in it (same closure, superset of
// seeds).
func dataflowSlice(p *isa.Program, data bool) map[isa.Reg]bool {
	s := map[isa.Reg]bool{}
	var uses [4]isa.Reg
	seed := func(ops ...isa.Operand) {
		for _, o := range ops {
			if o.Kind == isa.OperReg {
				s[o.Reg] = true
			}
		}
	}
	for i := range p.Insts {
		switch in := &p.Insts[i]; {
		case in.Op.IsMemory() && data:
			for _, r := range in.Uses(uses[:0]) {
				s[r] = true
			}
		case in.Op.IsMemory():
			seed(in.Src[0])
		case in.Op == isa.OpSetp:
			seed(in.Src[0], in.Src[1])
		}
	}
	backwardClose(p, s)
	return s
}

// backwardClose extends s to a fixpoint under "an instruction defining
// a register in s puts every register it reads into s".
func backwardClose(p *isa.Program, s map[isa.Reg]bool) {
	for changed := true; changed; {
		changed = false
		for i := range p.Insts {
			in := &p.Insts[i]
			d := in.Defs()
			if d == isa.NoReg || !s[d] {
				continue
			}
			var uses [4]isa.Reg
			for _, r := range in.Uses(uses[:0]) {
				if !s[r] {
					s[r] = true
					changed = true
				}
			}
		}
	}
}
