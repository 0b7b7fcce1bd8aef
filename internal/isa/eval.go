package isa

import "math"

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// F32Bits converts a float32 to its raw register representation.
func F32Bits(f float32) uint32 { return f32bits(f) }

// F32FromBits converts a raw register value to float32.
func F32FromBits(b uint32) float32 { return f32frombits(b) }

// Lanes is the width of a register row: one word per lane of a warp.
const Lanes = 32

// Row holds one register of a warp, one word per lane.
type Row [Lanes]uint32

// The semantics of every value-producing opcode, one small function
// each. EvalALU applies them to one lane and EvalALURow to a whole row;
// both call the same function, so the scalar oracle and the simulator
// cannot drift (and keep the same float expressions, so they round
// alike on architectures that fuse multiply-add).

func aluMov(a uint32) uint32    { return a }
func aluAdd(a, b uint32) uint32 { return uint32(int32(a) + int32(b)) }
func aluSub(a, b uint32) uint32 { return uint32(int32(a) - int32(b)) }
func aluMul(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) }
func aluMulHi(a, b uint32) uint32 {
	return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
}
func aluDiv(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int32(a) / int32(b))
}
func aluRem(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}
func aluMin(a, b uint32) uint32 {
	if int32(a) < int32(b) {
		return a
	}
	return b
}
func aluMax(a, b uint32) uint32 {
	if int32(a) > int32(b) {
		return a
	}
	return b
}
func aluAbs(a uint32) uint32 {
	if int32(a) < 0 {
		return uint32(-int32(a))
	}
	return a
}
func aluAnd(a, b uint32) uint32    { return a & b }
func aluOr(a, b uint32) uint32     { return a | b }
func aluXor(a, b uint32) uint32    { return a ^ b }
func aluNot(a uint32) uint32       { return ^a }
func aluShl(a, b uint32) uint32    { return a << (b & 31) }
func aluShr(a, b uint32) uint32    { return a >> (b & 31) }
func aluSra(a, b uint32) uint32    { return uint32(int32(a) >> (b & 31)) }
func aluMad(a, b, c uint32) uint32 { return uint32(int32(a)*int32(b) + int32(c)) }

// When both operands of a float operation are NaN, hardware returns one
// of them, quieted, and which one depends on the machine instruction's
// operand order, which Go leaves to the compiler for commutative
// operations. The commutative operations therefore pick the NaN
// explicitly, as the scalar evaluator has always done on amd64: the
// first operand for fadd, the second for fmul (and fma's product).
// Without this a row kernel could return the other payload.

func isNaN(a uint32) bool      { return a&0x7fffffff > 0x7f800000 }
func bothNaN(a, b uint32) bool { return isNaN(a) && isNaN(b) }
func quietNaN(a uint32) uint32 { return a | 0x00400000 }

func aluFAdd(a, b uint32) uint32 {
	if bothNaN(a, b) {
		return quietNaN(a)
	}
	return f32bits(f32frombits(a) + f32frombits(b))
}
func aluFSub(a, b uint32) uint32 { return f32bits(f32frombits(a) - f32frombits(b)) }
func aluFMul(a, b uint32) uint32 {
	if bothNaN(a, b) {
		return quietNaN(b)
	}
	return f32bits(f32frombits(a) * f32frombits(b))
}
func aluFDiv(a, b uint32) uint32 { return f32bits(f32frombits(a) / f32frombits(b)) }
func aluFMin(a, b uint32) uint32 {
	return f32bits(float32(math.Min(float64(f32frombits(a)), float64(f32frombits(b)))))
}
func aluFMax(a, b uint32) uint32 {
	return f32bits(float32(math.Max(float64(f32frombits(a)), float64(f32frombits(b)))))
}
func aluFAbs(a uint32) uint32 { return f32bits(float32(math.Abs(float64(f32frombits(a))))) }
func aluFNeg(a uint32) uint32 { return f32bits(-f32frombits(a)) }
func aluFMA(a, b, c uint32) uint32 {
	if isNaN(c) {
		// A NaN product wins the addition; the result is NaN either way,
		// so fusing cannot change it.
		if p := aluFMul(a, b); isNaN(p) {
			return p
		}
		return quietNaN(c)
	}
	if bothNaN(a, b) {
		return quietNaN(b)
	}
	fa, fb, fc := f32frombits(a), f32frombits(b), f32frombits(c)
	return f32bits(fa*fb + fc)
}
func aluItoF(a uint32) uint32 { return f32bits(float32(int32(a))) }
func aluFtoI(a uint32) uint32 {
	fa := f32frombits(a)
	if math.IsNaN(float64(fa)) {
		return 0
	}
	return uint32(int32(fa))
}
func aluSqrt(a uint32) uint32 { return f32bits(float32(math.Sqrt(float64(f32frombits(a))))) }
func aluRsqrt(a uint32) uint32 {
	return f32bits(float32(1 / math.Sqrt(float64(f32frombits(a)))))
}
func aluSin(a uint32) uint32  { return f32bits(float32(math.Sin(float64(f32frombits(a))))) }
func aluCos(a uint32) uint32  { return f32bits(float32(math.Cos(float64(f32frombits(a))))) }
func aluExp2(a uint32) uint32 { return f32bits(float32(math.Exp2(float64(f32frombits(a))))) }
func aluLog2(a uint32) uint32 { return f32bits(float32(math.Log2(float64(f32frombits(a))))) }
func aluRcp(a uint32) uint32  { return f32bits(1 / f32frombits(a)) }

// EvalALU computes the result of a value-producing opcode on 32-bit
// register values a, b, c for one lane. It is a pure function and the
// reference for EvalALURow. Opcodes that do not produce a
// general-register value (branches, memory, setp, selp) yield 0.
func EvalALU(op Opcode, a, b, c uint32) uint32 {
	switch op {
	case OpMov:
		return aluMov(a)
	case OpAdd:
		return aluAdd(a, b)
	case OpSub:
		return aluSub(a, b)
	case OpMul:
		return aluMul(a, b)
	case OpMulHi:
		return aluMulHi(a, b)
	case OpDiv:
		return aluDiv(a, b)
	case OpRem:
		return aluRem(a, b)
	case OpMin:
		return aluMin(a, b)
	case OpMax:
		return aluMax(a, b)
	case OpAbs:
		return aluAbs(a)
	case OpAnd:
		return aluAnd(a, b)
	case OpOr:
		return aluOr(a, b)
	case OpXor:
		return aluXor(a, b)
	case OpNot:
		return aluNot(a)
	case OpShl:
		return aluShl(a, b)
	case OpShr:
		return aluShr(a, b)
	case OpSra:
		return aluSra(a, b)
	case OpMad:
		return aluMad(a, b, c)
	case OpFAdd:
		return aluFAdd(a, b)
	case OpFSub:
		return aluFSub(a, b)
	case OpFMul:
		return aluFMul(a, b)
	case OpFDiv:
		return aluFDiv(a, b)
	case OpFMin:
		return aluFMin(a, b)
	case OpFMax:
		return aluFMax(a, b)
	case OpFAbs:
		return aluFAbs(a)
	case OpFNeg:
		return aluFNeg(a)
	case OpFMA:
		return aluFMA(a, b, c)
	case OpItoF:
		return aluItoF(a)
	case OpFtoI:
		return aluFtoI(a)
	case OpSqrt:
		return aluSqrt(a)
	case OpRsqrt:
		return aluRsqrt(a)
	case OpSin:
		return aluSin(a)
	case OpCos:
		return aluCos(a)
	case OpExp2:
		return aluExp2(a)
	case OpLog2:
		return aluLog2(a)
	case OpRcp:
		return aluRcp(a)
	}
	return 0
}

// The row helpers apply one lane function across a row. They inline at
// every call site in EvalALURow together with the lane function, so each
// opcode compiles to its own straight loop. Each lane reads its inputs
// before writing its output, so out may alias any input.

func map1(out, a *Row, f func(a uint32) uint32) {
	for i := range out {
		out[i] = f(a[i])
	}
}

func map2(out, a, b *Row, f func(a, b uint32) uint32) {
	for i := range out {
		out[i] = f(a[i], b[i])
	}
}

func map3(out, a, b, c *Row, f func(a, b, c uint32) uint32) {
	for i := range out {
		out[i] = f(a[i], b[i], c[i])
	}
}

// EvalALURow computes EvalALU(op, a[i], b[i], c[i]) into out[i] for
// every lane i, with one opcode dispatch for the whole row. out may
// alias a, b or c.
func EvalALURow(op Opcode, out, a, b, c *Row) {
	switch op {
	case OpMov:
		map1(out, a, aluMov)
	case OpAdd:
		map2(out, a, b, aluAdd)
	case OpSub:
		map2(out, a, b, aluSub)
	case OpMul:
		map2(out, a, b, aluMul)
	case OpMulHi:
		map2(out, a, b, aluMulHi)
	case OpDiv:
		map2(out, a, b, aluDiv)
	case OpRem:
		map2(out, a, b, aluRem)
	case OpMin:
		map2(out, a, b, aluMin)
	case OpMax:
		map2(out, a, b, aluMax)
	case OpAbs:
		map1(out, a, aluAbs)
	case OpAnd:
		map2(out, a, b, aluAnd)
	case OpOr:
		map2(out, a, b, aluOr)
	case OpXor:
		map2(out, a, b, aluXor)
	case OpNot:
		map1(out, a, aluNot)
	case OpShl:
		map2(out, a, b, aluShl)
	case OpShr:
		map2(out, a, b, aluShr)
	case OpSra:
		map2(out, a, b, aluSra)
	case OpMad:
		map3(out, a, b, c, aluMad)
	case OpFAdd:
		map2(out, a, b, aluFAdd)
	case OpFSub:
		map2(out, a, b, aluFSub)
	case OpFMul:
		map2(out, a, b, aluFMul)
	case OpFDiv:
		map2(out, a, b, aluFDiv)
	case OpFMin:
		map2(out, a, b, aluFMin)
	case OpFMax:
		map2(out, a, b, aluFMax)
	case OpFAbs:
		map1(out, a, aluFAbs)
	case OpFNeg:
		map1(out, a, aluFNeg)
	case OpFMA:
		map3(out, a, b, c, aluFMA)
	case OpItoF:
		map1(out, a, aluItoF)
	case OpFtoI:
		map1(out, a, aluFtoI)
	case OpSqrt:
		map1(out, a, aluSqrt)
	case OpRsqrt:
		map1(out, a, aluRsqrt)
	case OpSin:
		map1(out, a, aluSin)
	case OpCos:
		map1(out, a, aluCos)
	case OpExp2:
		map1(out, a, aluExp2)
	case OpLog2:
		map1(out, a, aluLog2)
	case OpRcp:
		map1(out, a, aluRcp)
	default:
		*out = Row{}
	}
}

func cmpEQ(a, b uint32) bool  { return a == b }
func cmpNE(a, b uint32) bool  { return a != b }
func cmpLT(a, b uint32) bool  { return int32(a) < int32(b) }
func cmpLE(a, b uint32) bool  { return int32(a) <= int32(b) }
func cmpGT(a, b uint32) bool  { return int32(a) > int32(b) }
func cmpGE(a, b uint32) bool  { return int32(a) >= int32(b) }
func cmpLTU(a, b uint32) bool { return a < b }
func cmpLEU(a, b uint32) bool { return a <= b }
func cmpGTU(a, b uint32) bool { return a > b }
func cmpGEU(a, b uint32) bool { return a >= b }
func cmpFEQ(a, b uint32) bool { return f32frombits(a) == f32frombits(b) }
func cmpFNE(a, b uint32) bool { return f32frombits(a) != f32frombits(b) }
func cmpFLT(a, b uint32) bool { return f32frombits(a) < f32frombits(b) }
func cmpFLE(a, b uint32) bool { return f32frombits(a) <= f32frombits(b) }
func cmpFGT(a, b uint32) bool { return f32frombits(a) > f32frombits(b) }
func cmpFGE(a, b uint32) bool { return f32frombits(a) >= f32frombits(b) }

// EvalCmp computes a setp comparison on two register values.
func EvalCmp(c CmpOp, a, b uint32) bool {
	switch c {
	case CmpEQ:
		return cmpEQ(a, b)
	case CmpNE:
		return cmpNE(a, b)
	case CmpLT:
		return cmpLT(a, b)
	case CmpLE:
		return cmpLE(a, b)
	case CmpGT:
		return cmpGT(a, b)
	case CmpGE:
		return cmpGE(a, b)
	case CmpLTU:
		return cmpLTU(a, b)
	case CmpLEU:
		return cmpLEU(a, b)
	case CmpGTU:
		return cmpGTU(a, b)
	case CmpGEU:
		return cmpGEU(a, b)
	case CmpFEQ:
		return cmpFEQ(a, b)
	case CmpFNE:
		return cmpFNE(a, b)
	case CmpFLT:
		return cmpFLT(a, b)
	case CmpFLE:
		return cmpFLE(a, b)
	case CmpFGT:
		return cmpFGT(a, b)
	case CmpFGE:
		return cmpFGE(a, b)
	}
	return false
}

// maskOf returns the lanes i for which f(a[i], b[i]) holds.
func maskOf(a, b *Row, f func(a, b uint32) bool) uint32 {
	var m uint32
	for i := range a {
		if f(a[i], b[i]) {
			m |= 1 << i
		}
	}
	return m
}

// EvalCmpRow evaluates a setp comparison on every lane of two rows and
// returns the lane mask of lanes where it holds.
func EvalCmpRow(c CmpOp, a, b *Row) uint32 {
	switch c {
	case CmpEQ:
		return maskOf(a, b, cmpEQ)
	case CmpNE:
		return maskOf(a, b, cmpNE)
	case CmpLT:
		return maskOf(a, b, cmpLT)
	case CmpLE:
		return maskOf(a, b, cmpLE)
	case CmpGT:
		return maskOf(a, b, cmpGT)
	case CmpGE:
		return maskOf(a, b, cmpGE)
	case CmpLTU:
		return maskOf(a, b, cmpLTU)
	case CmpLEU:
		return maskOf(a, b, cmpLEU)
	case CmpGTU:
		return maskOf(a, b, cmpGTU)
	case CmpGEU:
		return maskOf(a, b, cmpGEU)
	case CmpFEQ:
		return maskOf(a, b, cmpFEQ)
	case CmpFNE:
		return maskOf(a, b, cmpFNE)
	case CmpFLT:
		return maskOf(a, b, cmpFLT)
	case CmpFLE:
		return maskOf(a, b, cmpFLE)
	case CmpFGT:
		return maskOf(a, b, cmpFGT)
	case CmpFGE:
		return maskOf(a, b, cmpFGE)
	}
	return 0
}

// EvalAtom computes the new memory value and returned old value of an
// atomic read-modify-write: new = old <aop> operand.
func EvalAtom(aop AtomOp, old, operand uint32) (newVal, ret uint32) {
	so, sv := int32(old), int32(operand)
	switch aop {
	case AtomAdd:
		return uint32(so + sv), old
	case AtomMax:
		if sv > so {
			return operand, old
		}
		return old, old
	case AtomMin:
		if sv < so {
			return operand, old
		}
		return old, old
	case AtomExch:
		return operand, old
	case AtomAnd:
		return old & operand, old
	case AtomOr:
		return old | operand, old
	case AtomXor:
		return old ^ operand, old
	}
	return old, old
}
