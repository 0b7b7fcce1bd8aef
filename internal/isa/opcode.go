// Package isa defines the virtual GPU instruction set used throughout
// Flame-Go. The ISA is a register-allocated, PTX-like assembly language:
// 32-bit general registers, separate 1-bit predicate registers, explicit
// address spaces (global, shared, local, param), predicated branches,
// barriers, and atomics. It stands in for the register-allocated PTX the
// paper's compiler operates on.
//
// The package provides the instruction representation, a textual
// assembler/disassembler, a program validator, and pure evaluation
// functions for ALU/SFU semantics used by the simulator.
package isa

import "fmt"

// Opcode identifies an instruction operation.
type Opcode uint8

// Opcode values. The comment after each opcode gives its assembly mnemonic
// and operand shape. "d" is the destination register, "a"/"b"/"c" sources.
const (
	OpNop Opcode = iota // nop

	// Data movement.
	OpMov // mov d, a        (a: reg, imm, or special register)

	// Integer ALU (values are two's-complement 32-bit).
	OpAdd   // add d, a, b
	OpSub   // sub d, a, b
	OpMul   // mul d, a, b   (low 32 bits)
	OpMulHi // mulhi d, a, b (high 32 bits of signed product)
	OpDiv   // div d, a, b   (signed; division by zero yields 0)
	OpRem   // rem d, a, b   (signed; by zero yields 0)
	OpMin   // min d, a, b   (signed)
	OpMax   // max d, a, b   (signed)
	OpAbs   // abs d, a
	OpAnd   // and d, a, b
	OpOr    // or d, a, b
	OpXor   // xor d, a, b
	OpNot   // not d, a
	OpShl   // shl d, a, b
	OpShr   // shr d, a, b   (logical)
	OpSra   // sra d, a, b   (arithmetic)
	OpMad   // mad d, a, b, c  (d = a*b + c, low 32 bits)

	// Floating point (IEEE-754 binary32 carried in 32-bit registers).
	OpFAdd // fadd d, a, b
	OpFSub // fsub d, a, b
	OpFMul // fmul d, a, b
	OpFDiv // fdiv d, a, b
	OpFMin // fmin d, a, b
	OpFMax // fmax d, a, b
	OpFAbs // fabs d, a
	OpFNeg // fneg d, a
	OpFMA  // fma d, a, b, c  (d = a*b + c)
	OpItoF // itof d, a      (signed int -> float32)
	OpFtoI // ftoi d, a      (float32 -> signed int, truncating)

	// Special function unit.
	OpSqrt  // sqrt d, a
	OpRsqrt // rsqrt d, a
	OpSin   // sin d, a
	OpCos   // cos d, a
	OpExp2  // exp2 d, a
	OpLog2  // log2 d, a
	OpRcp   // rcp d, a

	// Predicates.
	OpSetp // setp.<cmp> p, a, b
	OpSelp // selp d, a, b, p  (d = p ? a : b)

	// Memory. Address operand is [reg+imm]; Space selects the address space.
	OpLd   // ld.<space> d, [a+imm]
	OpSt   // st.<space> [a+imm], b
	OpAtom // atom.<space>.<aop> d, [a+imm], b   (d = old value)

	// Control.
	OpBra    // bra TARGET          (predicated for conditional branches)
	OpBar    // bar.sync            (block-wide barrier)
	OpMembar // membar              (memory fence)
	OpExit   // exit                (thread terminates)

	numOpcodes
)

var opNames = [numOpcodes]string{
	OpNop: "nop", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMulHi: "mulhi",
	OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max", OpAbs: "abs",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSra: "sra", OpMad: "mad",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFMin: "fmin", OpFMax: "fmax", OpFAbs: "fabs", OpFNeg: "fneg",
	OpFMA: "fma", OpItoF: "itof", OpFtoI: "ftoi",
	OpSqrt: "sqrt", OpRsqrt: "rsqrt", OpSin: "sin", OpCos: "cos",
	OpExp2: "exp2", OpLog2: "log2", OpRcp: "rcp",
	OpSetp: "setp", OpSelp: "selp",
	OpLd: "ld", OpSt: "st", OpAtom: "atom",
	OpBra: "bra", OpBar: "bar.sync", OpMembar: "membar", OpExit: "exit",
}

// NumOpcodes returns the number of defined opcodes; valid opcodes lie in
// [0, NumOpcodes).
func NumOpcodes() int { return int(numOpcodes) }

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// NumSrcs reports how many register/immediate source operands the opcode
// consumes (not counting the address base of memory operations, which is
// Src[0], nor predicate guards).
func (op Opcode) NumSrcs() int {
	switch op {
	case OpNop, OpBar, OpMembar, OpExit:
		return 0
	case OpMov, OpNot, OpAbs, OpFAbs, OpFNeg, OpItoF, OpFtoI,
		OpSqrt, OpRsqrt, OpSin, OpCos, OpExp2, OpLog2, OpRcp, OpBra, OpLd:
		return 1
	case OpMad, OpFMA, OpSelp:
		return 3
	default:
		return 2
	}
}

// HasDst reports whether the opcode writes a general destination register.
func (op Opcode) HasDst() bool {
	switch op {
	case OpNop, OpSt, OpBra, OpBar, OpMembar, OpExit, OpSetp:
		return false
	}
	return true
}

// IsMemory reports whether the opcode accesses an address space.
func (op Opcode) IsMemory() bool {
	return op == OpLd || op == OpSt || op == OpAtom
}

// IsStore reports whether the opcode writes to memory
// (OpAtom both reads and writes and reports true here too).
func (op Opcode) IsStore() bool { return op == OpSt || op == OpAtom }

// IsBranch reports whether the opcode may redirect control flow.
func (op Opcode) IsBranch() bool { return op == OpBra }

// IsSync reports whether the opcode is a synchronization primitive that the
// idempotent-region formation pass must treat as a region boundary
// (barriers, atomics, and memory fences).
func (op Opcode) IsSync() bool {
	return op == OpBar || op == OpAtom || op == OpMembar
}

// IsSFU reports whether the opcode executes on the special function unit.
func (op Opcode) IsSFU() bool {
	switch op {
	case OpSqrt, OpRsqrt, OpSin, OpCos, OpExp2, OpLog2, OpRcp:
		return true
	}
	return false
}

// IsFloat reports whether the opcode interprets its operands as float32.
func (op Opcode) IsFloat() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMin, OpFMax, OpFAbs, OpFNeg,
		OpFMA, OpFtoI, OpSqrt, OpRsqrt, OpSin, OpCos, OpExp2, OpLog2, OpRcp:
		return true
	}
	return false
}

// Duplicable reports whether SwapCodes-style instruction duplication
// replicates this opcode. Control, synchronization and memory-commit
// operations are not duplicated (the paper's plain SwapCodes duplicates
// value-producing instructions; loads/stores are covered by ECC and
// hardened AGUs).
func (op Opcode) Duplicable() bool {
	switch op {
	case OpNop, OpBra, OpBar, OpMembar, OpExit, OpSt, OpAtom, OpLd:
		return false
	}
	return true
}

// CmpOp is the comparison mode of a setp instruction.
type CmpOp uint8

// Comparison modes. Modes prefixed with F compare IEEE-754 binary32 values;
// U-suffixed modes compare unsigned integers; the rest compare signed
// integers.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	CmpLTU
	CmpLEU
	CmpGTU
	CmpGEU
	CmpFEQ
	CmpFNE
	CmpFLT
	CmpFLE
	CmpFGT
	CmpFGE

	numCmpOps
)

var cmpNames = [numCmpOps]string{
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le",
	CmpGT: "gt", CmpGE: "ge", CmpLTU: "ltu", CmpLEU: "leu",
	CmpGTU: "gtu", CmpGEU: "geu",
	CmpFEQ: "feq", CmpFNE: "fne", CmpFLT: "flt", CmpFLE: "fle",
	CmpFGT: "fgt", CmpFGE: "fge",
}

// String returns the assembly suffix of the comparison mode.
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// AtomOp is the combining operation of an atomic instruction.
type AtomOp uint8

// Atomic combining operations.
const (
	AtomAdd AtomOp = iota
	AtomMax
	AtomMin
	AtomExch
	AtomAnd
	AtomOr
	AtomXor

	numAtomOps
)

var atomNames = [numAtomOps]string{
	AtomAdd: "add", AtomMax: "max", AtomMin: "min", AtomExch: "exch",
	AtomAnd: "and", AtomOr: "or", AtomXor: "xor",
}

// String returns the assembly suffix of the atomic operation.
func (a AtomOp) String() string {
	if int(a) < len(atomNames) {
		return atomNames[a]
	}
	return fmt.Sprintf("atom(%d)", uint8(a))
}

// Space is a memory address space.
type Space uint8

// Address spaces. Addresses are byte addresses; all accesses are 32-bit
// word accesses and must be 4-byte aligned.
const (
	SpaceNone   Space = iota
	SpaceGlobal       // device global memory, shared by all blocks
	SpaceShared       // per-block scratchpad, banked
	SpaceLocal        // per-thread private memory (spills, checkpoints)
	SpaceParam        // read-only kernel parameters
)

var spaceNames = [...]string{
	SpaceNone: "none", SpaceGlobal: "global", SpaceShared: "shared",
	SpaceLocal: "local", SpaceParam: "param",
}

// String returns the assembly suffix of the address space.
func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}
