package isa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvalALUInt(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    uint32
	}{
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, uint32(0xFFFFFFFF)},
		{OpMul, 6, 7, 0, 42},
		{OpMulHi, 0x40000000, 4, 0, 1},
		{OpDiv, 42, 5, 0, 8},
		{OpDiv, uint32(0xFFFFFFD6), 5, 0, uint32(0xFFFFFFF8)},
		{OpDiv, 1, 0, 0, 0},
		{OpRem, 42, 5, 0, 2},
		{OpRem, 1, 0, 0, 0},
		{OpMin, uint32(0xFFFFFFFE), 1, 0, uint32(0xFFFFFFFE)},
		{OpMax, uint32(0xFFFFFFFE), 1, 0, 1},
		{OpAbs, uint32(0xFFFFFFF7), 0, 0, 9},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpNot, 0, 0, 0, 0xFFFFFFFF},
		{OpShl, 1, 5, 0, 32},
		{OpShr, 0x80000000, 31, 0, 1},
		{OpSra, 0x80000000, 31, 0, 0xFFFFFFFF},
		{OpMad, 3, 4, 5, 17},
		{OpMov, 99, 0, 0, 99},
	}
	for _, tc := range cases {
		if got := EvalALU(tc.op, tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("%s(%d,%d,%d) = %d, want %d", tc.op, tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	f := F32Bits
	cases := []struct {
		op      Opcode
		a, b, c uint32
		want    float32
	}{
		{OpFAdd, f(1.5), f(2.25), 0, 3.75},
		{OpFSub, f(1.5), f(2.25), 0, -0.75},
		{OpFMul, f(3), f(4), 0, 12},
		{OpFDiv, f(1), f(4), 0, 0.25},
		{OpFMin, f(-1), f(2), 0, -1},
		{OpFMax, f(-1), f(2), 0, 2},
		{OpFAbs, f(-1.5), 0, 0, 1.5},
		{OpFNeg, f(1.5), 0, 0, -1.5},
		{OpFMA, f(2), f(3), f(4), 10},
		{OpItoF, uint32(0xFFFFFFF9), 0, 0, -7},
		{OpSqrt, f(9), 0, 0, 3},
		{OpRsqrt, f(4), 0, 0, 0.5},
		{OpRcp, f(4), 0, 0, 0.25},
		{OpExp2, f(3), 0, 0, 8},
		{OpLog2, f(8), 0, 0, 3},
	}
	for _, tc := range cases {
		got := F32FromBits(EvalALU(tc.op, tc.a, tc.b, tc.c))
		if math.Abs(float64(got-tc.want)) > 1e-6 {
			t.Errorf("%s = %v, want %v", tc.op, got, tc.want)
		}
	}
	if got := EvalALU(OpFtoI, f(-3.7), 0, 0); int32(got) != -3 {
		t.Errorf("ftoi(-3.7) = %d, want -3", int32(got))
	}
	if got := EvalALU(OpFtoI, F32Bits(float32(math.NaN())), 0, 0); got != 0 {
		t.Errorf("ftoi(NaN) = %d, want 0", got)
	}
}

func TestEvalCmp(t *testing.T) {
	f := F32Bits
	neg1 := uint32(0xFFFFFFFF)
	cases := []struct {
		c    CmpOp
		a, b uint32
		want bool
	}{
		{CmpEQ, 5, 5, true}, {CmpNE, 5, 5, false},
		{CmpLT, neg1, 1, true}, {CmpLTU, neg1, 1, false},
		{CmpLE, 5, 5, true}, {CmpGT, 6, 5, true}, {CmpGE, 5, 6, false},
		{CmpLEU, 1, neg1, true}, {CmpGTU, neg1, 1, true}, {CmpGEU, 0, 0, true},
		{CmpFLT, f(1.5), f(2.5), true}, {CmpFGE, f(2.5), f(2.5), true},
		{CmpFEQ, f(1), f(1), true}, {CmpFNE, f(1), f(2), true},
		{CmpFLE, f(3), f(2), false}, {CmpFGT, f(3), f(2), true},
	}
	for _, tc := range cases {
		if got := EvalCmp(tc.c, tc.a, tc.b); got != tc.want {
			t.Errorf("cmp %s(%d,%d) = %v, want %v", tc.c, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEvalAtom(t *testing.T) {
	nv, old := EvalAtom(AtomAdd, 10, 5)
	if nv != 15 || old != 10 {
		t.Fatalf("atom add: %d,%d", nv, old)
	}
	nv, _ = EvalAtom(AtomMax, uint32(0xFFFFFFFB), 3)
	if int32(nv) != 3 {
		t.Fatalf("atom max: %d", int32(nv))
	}
	nv, _ = EvalAtom(AtomMin, uint32(0xFFFFFFFB), 3)
	if int32(nv) != -5 {
		t.Fatalf("atom min: %d", int32(nv))
	}
	nv, old = EvalAtom(AtomExch, 1, 2)
	if nv != 2 || old != 1 {
		t.Fatalf("atom exch: %d,%d", nv, old)
	}
	nv, _ = EvalAtom(AtomAnd, 0b1100, 0b1010)
	if nv != 0b1000 {
		t.Fatalf("atom and: %b", nv)
	}
	nv, _ = EvalAtom(AtomOr, 0b1100, 0b1010)
	if nv != 0b1110 {
		t.Fatalf("atom or: %b", nv)
	}
	nv, _ = EvalAtom(AtomXor, 0b1100, 0b1010)
	if nv != 0b0110 {
		t.Fatalf("atom xor: %b", nv)
	}
}

// Property: integer add/sub and xor are self-inverting; mov is identity.
func TestEvalALUProperties(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		s := EvalALU(OpAdd, a, b, 0)
		back := EvalALU(OpSub, s, b, 0)
		return back == a
	}, nil); err != nil {
		t.Error("add/sub inverse:", err)
	}
	if err := quick.Check(func(a, b uint32) bool {
		x := EvalALU(OpXor, a, b, 0)
		return EvalALU(OpXor, x, b, 0) == a
	}, nil); err != nil {
		t.Error("xor involution:", err)
	}
	if err := quick.Check(func(a uint32) bool {
		return EvalALU(OpNot, EvalALU(OpNot, a, 0, 0), 0, 0) == a
	}, nil); err != nil {
		t.Error("not involution:", err)
	}
	// min/max are commutative and ordered.
	if err := quick.Check(func(a, b uint32) bool {
		mn := EvalALU(OpMin, a, b, 0)
		mx := EvalALU(OpMax, a, b, 0)
		return mn == EvalALU(OpMin, b, a, 0) && mx == EvalALU(OpMax, b, a, 0) &&
			int32(mn) <= int32(mx)
	}, nil); err != nil {
		t.Error("min/max:", err)
	}
	// cmp trichotomy for signed ints.
	if err := quick.Check(func(a, b uint32) bool {
		lt := EvalCmp(CmpLT, a, b)
		eq := EvalCmp(CmpEQ, a, b)
		gt := EvalCmp(CmpGT, a, b)
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}, nil); err != nil {
		t.Error("trichotomy:", err)
	}
	// atomic add returns old value and is associative with respect to sum.
	if err := quick.Check(func(m, x, y uint32) bool {
		v1, old1 := EvalAtom(AtomAdd, m, x)
		if old1 != m {
			return false
		}
		v2, _ := EvalAtom(AtomAdd, v1, y)
		w1, _ := EvalAtom(AtomAdd, m, y)
		w2, _ := EvalAtom(AtomAdd, w1, x)
		return v2 == w2
	}, nil); err != nil {
		t.Error("atomic add commutes:", err)
	}
}

// Property: guard string forms re-parse to the same guard.
func TestOperandStringForms(t *testing.T) {
	ops := []Operand{R(3), Imm(-7), Spec(SpecTidX), PredOperand(2)}
	wants := []string{"r3", "-7", "%tid.x", "p2"}
	for i, o := range ops {
		if o.String() != wants[i] {
			t.Errorf("operand %d = %q, want %q", i, o.String(), wants[i])
		}
	}
	g := Guard{Pred: 1, Neg: true}
	if g.String() != "@!p1 " {
		t.Errorf("guard = %q", g.String())
	}
	if NoGuard.String() != "" {
		t.Errorf("NoGuard = %q", NoGuard.String())
	}
}

// interestingWord draws operands that stress both integer and float
// semantics: edge integers, signed zeros, infinities, NaNs, denormals
// and uniformly random words.
func interestingWord(r *rand.Rand) uint32 {
	edges := [...]uint32{0, 1, 2, 31, 32, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffffe,
		f32bits(1), f32bits(-1.5), f32bits(0.5), 0x80000000, 0x7f800000, 0xff800000,
		0x7fc00000, 0x00000001, 0x3f800001}
	if r.Intn(3) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return r.Uint32()
}

func randomRow(r *rand.Rand) *Row {
	var row Row
	for i := range row {
		row[i] = interestingWord(r)
	}
	return &row
}

// TestRowKernelsMatchScalar checks that the row kernels compute, lane
// by lane, exactly what the scalar evaluators do, for every opcode and
// comparison, including a result row aliasing its first source.
func TestRowKernelsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for op := Opcode(0); op < numOpcodes; op++ {
		for trial := 0; trial < 20; trial++ {
			a, b, c := randomRow(r), randomRow(r), randomRow(r)
			var out Row
			EvalALURow(op, &out, a, b, c)
			alias := *a
			EvalALURow(op, &alias, &alias, b, c)
			for i := range out {
				want := EvalALU(op, a[i], b[i], c[i])
				if out[i] != want || alias[i] != want {
					t.Fatalf("%s lane %d (%#x, %#x, %#x): row %#x, aliased %#x, scalar %#x",
						op, i, a[i], b[i], c[i], out[i], alias[i], want)
				}
			}
		}
	}
	for cmp := CmpOp(0); cmp < numCmpOps; cmp++ {
		for trial := 0; trial < 20; trial++ {
			a, b := randomRow(r), randomRow(r)
			if trial%2 == 1 {
				b = a // equal operands in every lane
			}
			m := EvalCmpRow(cmp, a, b)
			for i := range a {
				if got, want := m&(1<<i) != 0, EvalCmp(cmp, a[i], b[i]); got != want {
					t.Fatalf("%s lane %d (%#x, %#x): row %v, scalar %v", cmp, i, a[i], b[i], got, want)
				}
			}
		}
	}
}
