package isa

import "fmt"

// Reg is a general-purpose 32-bit register index (r0, r1, ...).
type Reg uint16

// NoReg marks an absent register operand.
const NoReg Reg = 0xFFFF

// String returns the assembly form of the register ("r7").
func (r Reg) String() string {
	if r == NoReg {
		return "r?"
	}
	return fmt.Sprintf("r%d", uint16(r))
}

// PredReg is a 1-bit predicate register index (p0..p7).
type PredReg uint8

// NoPred marks an absent predicate.
const NoPred PredReg = 0xFF

// NumPredRegs is the number of predicate registers per thread.
const NumPredRegs = 8

// String returns the assembly form of the predicate register ("p2").
func (p PredReg) String() string {
	if p == NoPred {
		return "p?"
	}
	return fmt.Sprintf("p%d", uint8(p))
}

// Special is a read-only special register exposing thread/block geometry.
type Special uint8

// Special registers.
const (
	SpecNone    Special = iota
	SpecTidX            // %tid.x
	SpecTidY            // %tid.y
	SpecTidZ            // %tid.z
	SpecNTidX           // %ntid.x  (block dim)
	SpecNTidY           // %ntid.y
	SpecNTidZ           // %ntid.z
	SpecCtaIDX          // %ctaid.x (block index)
	SpecCtaIDY          // %ctaid.y
	SpecCtaIDZ          // %ctaid.z
	SpecNCtaIDX         // %nctaid.x (grid dim)
	SpecNCtaIDY         // %nctaid.y
	SpecNCtaIDZ         // %nctaid.z
	SpecLaneID          // %laneid
	SpecWarpID          // %warpid (within the block)

	numSpecials
)

var specialNames = [numSpecials]string{
	SpecNone: "%none",
	SpecTidX: "%tid.x", SpecTidY: "%tid.y", SpecTidZ: "%tid.z",
	SpecNTidX: "%ntid.x", SpecNTidY: "%ntid.y", SpecNTidZ: "%ntid.z",
	SpecCtaIDX: "%ctaid.x", SpecCtaIDY: "%ctaid.y", SpecCtaIDZ: "%ctaid.z",
	SpecNCtaIDX: "%nctaid.x", SpecNCtaIDY: "%nctaid.y", SpecNCtaIDZ: "%nctaid.z",
	SpecLaneID: "%laneid", SpecWarpID: "%warpid",
}

// String returns the assembly form of the special register.
func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("%%spec(%d)", uint8(s))
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	OperNone    OperandKind = iota
	OperReg                 // general register
	OperImm                 // 32-bit immediate
	OperSpecial             // special register
	OperPred                // predicate register (selp source)
)

// Operand is a source operand of an instruction.
type Operand struct {
	Kind OperandKind
	Reg  Reg     // valid when Kind == OperReg
	Imm  int32   // valid when Kind == OperImm (float imms carry bits)
	Spec Special // valid when Kind == OperSpecial
	Pred PredReg // valid when Kind == OperPred
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: OperReg, Reg: r} }

// Imm returns an integer immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OperImm, Imm: v} }

// FImm returns a float32 immediate operand (carried as raw bits).
func FImm(v float32) Operand {
	return Operand{Kind: OperImm, Imm: int32(f32bits(v))}
}

// Spec returns a special-register operand.
func Spec(s Special) Operand { return Operand{Kind: OperSpecial, Spec: s} }

// PredOperand returns a predicate-register operand (for selp).
func PredOperand(p PredReg) Operand { return Operand{Kind: OperPred, Pred: p} }

// String returns the assembly form of the operand.
func (o Operand) String() string {
	switch o.Kind {
	case OperReg:
		return o.Reg.String()
	case OperImm:
		return fmt.Sprintf("%d", o.Imm)
	case OperSpecial:
		return o.Spec.String()
	case OperPred:
		return o.Pred.String()
	default:
		return "_"
	}
}

// Guard is an instruction's predicate guard (@p3 / @!p3).
type Guard struct {
	Pred PredReg // NoPred when unguarded
	Neg  bool    // true for @!p
}

// NoGuard is the guard of an unpredicated instruction.
var NoGuard = Guard{Pred: NoPred}

// Valid reports whether the guard references a predicate register.
func (g Guard) Valid() bool { return g.Pred != NoPred }

// String returns the assembly prefix of the guard ("@p1 ", "@!p0 ", or "").
func (g Guard) String() string {
	if !g.Valid() {
		return ""
	}
	if g.Neg {
		return "@!" + g.Pred.String() + " "
	}
	return "@" + g.Pred.String() + " "
}
