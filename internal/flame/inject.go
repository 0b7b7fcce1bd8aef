package flame

import (
	"fmt"
	"math/bits"
	"math/rand"

	"flame/internal/gpu"
	"flame/internal/isa"
)

// FaultModel selects which microarchitectural state an injector may
// corrupt.
type FaultModel uint8

const (
	// DataSlice strikes only the data slice — destination registers and
	// store data that idempotent re-execution provably repairs. This is
	// the paper's fault model (Section III-B): register files, caches and
	// memory are ECC-protected and AGUs are hardened, so faults manifest
	// as corrupted values, never as wrong addresses or control.
	DataSlice FaultModel = iota
	// FullSite additionally strikes the address/control slice: registers
	// that transitively feed memory-address bases or comparisons. The
	// paper's scheme does not claim coverage there (a corrupted address
	// or predicate input can commit a stray store that re-execution never
	// overwrites, or livelock the kernel); injecting into the full site
	// set lets a campaign MEASURE the effective-coverage boundary instead
	// of assuming it.
	FullSite
)

// String returns the model's campaign-flag spelling.
func (m FaultModel) String() string {
	switch m {
	case DataSlice:
		return "data"
	case FullSite:
		return "full"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseFaultModel parses a campaign-flag spelling ("data" or "full").
func ParseFaultModel(s string) (FaultModel, error) {
	switch s {
	case "data", "data-slice":
		return DataSlice, nil
	case "full", "full-site":
		return FullSite, nil
	}
	return DataSlice, fmt.Errorf("flame: unknown fault model %q (want data or full)", s)
}

// Strike records one particle strike of an injection trial.
type Strike struct {
	// ArmCycle is the cycle at or after which the strike corrupts the
	// next eligible executed instruction.
	ArmCycle int64
	// Injected is set once the strike corrupted state.
	Injected bool
	// Detected is set once the sensors reported the strike.
	Detected bool
	// InjectedAt / DetectedAt are the corruption and detection cycles.
	InjectedAt, DetectedAt int64
	// Reg is the corrupted destination register, or isa.NoReg for
	// store-data corruptions.
	Reg isa.Reg
	// Excluded reports whether the corrupted site lies in the
	// address/control slice (only reachable under FullSite).
	Excluded bool
	// SM, Warp and Lane identify the struck execution site (valid once
	// Injected): the SM index, the warp's slot ID on that SM, and the
	// lane whose register or store data was corrupted. Propagation
	// tracers key their taint state on (SM, Warp) to follow the
	// corrupted value through subsequent instructions.
	SM, Warp, Lane int
	// Description says what was corrupted, for logs.
	Description string

	detectAt int64
}

// Injector models particle strikes corrupting the output of in-flight
// instructions, and the acoustic sensors detecting each within WCDL
// cycles. A single-strike injector (NewInjector) reproduces the paper's
// per-run fault model; campaign trials may arm several strikes and widen
// the target set with the FullSite model.
type Injector struct {
	// MaxDelay bounds the sensor detection delay in cycles (uniform in
	// [1, MaxDelay]); it must not exceed the WCDL. Zero means immediate
	// detection (duplication/tail-DMR schemes).
	MaxDelay int
	// Model selects the injectable site set.
	Model FaultModel
	// Rand drives lane/bit/delay choices.
	Rand *rand.Rand

	// Strikes are the armed strikes, sorted by ArmCycle; strike k+1 only
	// arms after strike k fired.
	Strikes []Strike

	// Aggregate results, kept for single-strike callers:
	// Injected reports that at least one strike corrupted state, Detected
	// that every fired strike was detected. InjectedAt is the first
	// corruption cycle, DetectedAt the latest detection cycle, and
	// Description describes the first strike.
	Injected    bool
	Detected    bool
	InjectedAt  int64
	DetectedAt  int64
	Description string
	// Detections counts detected strikes.
	Detections int

	next int // index of the next unfired strike
	// excluded caches the set of registers outside the injectable data
	// slice (see addressControlSlice).
	excluded map[isa.Reg]bool
}

// addressControlSlice computes the registers that transitively feed a
// memory address base or a comparison (and through it, control flow).
// The paper's fault model hardens address generation (AGU + RF
// controller, Section IV) and discards wrong-path work via store
// buffering in the CPU predecessors; with immediately-committed GPU
// stores, a corrupted address or predicate input could commit a store
// that re-execution does not overwrite. The DataSlice model therefore
// injects only into the complement — the values idempotent re-execution
// provably repairs — mirroring the paper's effective coverage claim.
func addressControlSlice(p *isa.Program) map[isa.Reg]bool {
	s := map[isa.Reg]bool{}
	add := func(o isa.Operand) bool {
		if o.Kind == isa.OperReg && !s[o.Reg] {
			s[o.Reg] = true
			return true
		}
		return false
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsMemory() {
			add(in.Src[0])
		}
		if in.Op == isa.OpSetp {
			add(in.Src[0])
			add(in.Src[1])
		}
	}
	backwardClose(p, s)
	return s
}

// AddressControlSlice exposes the injector's excluded-site set (the
// registers the DataSlice model refuses to strike) for pre-trial
// analysis: the pruner must mirror the injector's eligibility and
// Excluded marking exactly.
func AddressControlSlice(p *isa.Program) map[isa.Reg]bool {
	return addressControlSlice(p)
}

// StoreReachSlice computes the registers whose value can transitively
// influence anything a trial is classified by: memory contents, control
// flow, or timing. Seeds are every register operand of a memory
// operation (address base AND store/atomic data — unlike the
// address/control slice, which seeds addresses only) and both setp
// operands (predicates are a separate register class written only by
// setp, so seeding its general-register inputs covers every guard and
// selp consumer). The backward dataflow closure then pulls in
// everything that feeds a seed.
//
// A register OUTSIDE this slice is dead-before-store: flipping a bit in
// it can change other non-slice registers, but never a store address,
// store data, predicate, branch, or latency — so final global memory
// and the cycle count stay bit-identical to the golden run. This is the
// static certificate behind campaign trial pruning; note
// AddressControlSlice ⊆ StoreReachSlice by construction (same closure,
// superset of seeds).
func StoreReachSlice(p *isa.Program) map[isa.Reg]bool {
	s := map[isa.Reg]bool{}
	add := func(o isa.Operand) {
		if o.Kind == isa.OperReg {
			s[o.Reg] = true
		}
	}
	var uses [4]isa.Reg
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsMemory() {
			for _, r := range in.Uses(uses[:0]) {
				s[r] = true
			}
		}
		if in.Op == isa.OpSetp {
			add(in.Src[0])
			add(in.Src[1])
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

// NewInjector creates a single-strike data-slice injector armed at the
// given cycle (the paper's per-run fault model).
func NewInjector(armCycle int64, maxDelay int, seed int64) *Injector {
	return NewCampaignInjector([]int64{armCycle}, maxDelay, DataSlice, seed)
}

// NewCampaignInjector creates an injector arming one strike per entry of
// arms (each fires at the first eligible instruction at or after its
// cycle, in order) under the given fault model.
func NewCampaignInjector(arms []int64, maxDelay int, model FaultModel, seed int64) *Injector {
	inj := &Injector{
		MaxDelay: maxDelay,
		Model:    model,
		Rand:     rand.New(rand.NewSource(seed)),
		Strikes:  make([]Strike, len(arms)),
	}
	for i, a := range arms {
		inj.Strikes[i] = Strike{ArmCycle: a, Reg: isa.NoReg}
	}
	return inj
}

// Observe is called after each executed instruction (from the
// controller's OnExecuted hook, or directly for unprotected campaigns);
// it corrupts the first eligible instruction once a strike is armed.
func (inj *Injector) Observe(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	if inj.next >= len(inj.Strikes) {
		return
	}
	s := &inj.Strikes[inj.next]
	if d.Cyc < s.ArmCycle {
		return
	}
	if inj.excluded == nil {
		inj.excluded = addressControlSlice(d.Kernel())
	}
	in := &d.Kernel().Insts[pc]
	lane := inj.pickLane(w)
	if lane < 0 {
		return
	}
	bit := uint32(1) << uint(inj.Rand.Intn(32))
	switch {
	case in.Defs() != isa.NoReg && in.Origin != isa.OrigDup &&
		(inj.Model == FullSite || !inj.excluded[in.Defs()]):
		r := in.Defs()
		w.SetReg(lane, r, w.Reg(lane, r)^bit)
		s.Reg = r
		s.Excluded = inj.excluded[r]
		s.Description = fmt.Sprintf("cycle %d: flipped bit %#x of %s (lane %d, warp %d, SM %d, inst %d: %s)",
			d.Cyc, bit, r, lane, w.ID, sm.ID, pc, in.String())
	case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
		addr := sm.LaneAddress(w, lane, pc)
		v, err := d.Mem.Load(addr)
		if err != nil {
			return
		}
		if d.Mem.Store(addr, v^bit) != nil {
			return
		}
		s.Description = fmt.Sprintf("cycle %d: flipped bit %#x of store data at %#x (lane %d, warp %d, SM %d)",
			d.Cyc, bit, addr, lane, w.ID, sm.ID)
	default:
		return // not a corruptible instruction; stay armed
	}
	s.SM, s.Warp, s.Lane = sm.ID, w.ID, lane
	s.Injected = true
	s.InjectedAt = d.Cyc
	delay := int64(0)
	if inj.MaxDelay > 0 {
		delay = 1 + int64(inj.Rand.Intn(inj.MaxDelay))
	}
	s.detectAt = d.Cyc + delay
	if !inj.Injected {
		inj.InjectedAt = d.Cyc
		inj.Description = s.Description
	}
	inj.Injected = true
	inj.Detected = false // pending detection outstanding
	inj.next++
}

// FiredStrikes counts the strikes that corrupted state.
func (inj *Injector) FiredStrikes() int { return inj.next }

// ExcludedStrikes counts fired strikes that landed in the
// address/control slice (possible only under FullSite).
func (inj *Injector) ExcludedStrikes() int {
	n := 0
	for i := range inj.Strikes {
		if inj.Strikes[i].Injected && inj.Strikes[i].Excluded {
			n++
		}
	}
	return n
}

// pickLane selects a random lane that actually executed the instruction.
// A particle corrupts the output of an executing lane; striking a
// diverged or predicated-off lane would fabricate state no re-execution
// repairs — corruption the fault model cannot produce. The executing
// lane set is the warp's LastExecMask (captured at execution), NOT its
// ActiveMask: when the instruction immediately precedes a reconvergence
// point the stack has already popped by OnExecuted time, and the
// widened mask would let a strike land on a lane whose address/data
// registers were never computed on this path.
func (inj *Injector) pickLane(w *gpu.Warp) int {
	mask := w.LastExecMask() & w.RegLanes()
	n := bits.OnesCount32(mask)
	if n == 0 {
		return -1
	}
	for k := inj.Rand.Intn(n); k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros32(mask)
}

// NextDetection returns the earliest cycle a fired-but-undetected strike
// reports, or -1 if none is pending. Unfired strikes need an executed
// instruction to inject, which cannot happen while every scheduler is
// stalled — so this bound is exact for fast-forwarding.
func (inj *Injector) NextDetection() int64 {
	due := int64(-1)
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if !s.Injected || s.Detected {
			continue
		}
		if due < 0 || s.detectAt < due {
			due = s.detectAt
		}
	}
	return due
}

// DetectionDue reports whether the sensors report one or more pending
// strikes this cycle and marks them detected. The caller performs the
// recovery (one recovery covers every strike reported this cycle).
func (inj *Injector) DetectionDue(cyc int64) bool {
	due := false
	undetected := 0
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if !s.Injected || s.Detected {
			continue
		}
		if cyc >= s.detectAt {
			s.Detected = true
			s.DetectedAt = cyc
			inj.DetectedAt = cyc
			inj.Detections++
			due = true
		} else {
			undetected++
		}
	}
	if due && undetected == 0 {
		inj.Detected = true
	}
	return due
}
