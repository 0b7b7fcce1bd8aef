package isa

import (
	"fmt"
	"strings"
)

// Program is an assembled kernel: a flat instruction sequence with resolved
// branch targets plus the static resource metadata the simulator needs to
// compute occupancy.
type Program struct {
	Name  string
	Insts []Inst

	// NumRegs is the number of general registers the kernel uses per
	// thread (max register index + 1). Recomputed by Finalize.
	NumRegs int

	// SharedBytes is the per-block shared-memory footprint in bytes.
	SharedBytes int

	// LocalBytes is the per-thread local-memory footprint in bytes
	// (spills and checkpoint storage).
	LocalBytes int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Clone returns a deep copy of the program. Compiler passes transform
// clones so that one assembled kernel can be compiled under several
// schemes.
func (p *Program) Clone() *Program {
	q := *p
	q.Insts = make([]Inst, len(p.Insts))
	copy(q.Insts, p.Insts)
	return &q
}

// Finalize recomputes register counts and validates the program. It must
// be called after any pass that adds, removes, or renames instructions.
func (p *Program) Finalize() error {
	p.NumRegs = 0
	var uses []Reg
	for i := range p.Insts {
		in := &p.Insts[i]
		uses = uses[:0]
		uses = in.Uses(uses)
		if d := in.Defs(); d != NoReg {
			uses = append(uses, d)
		}
		for _, r := range uses {
			if r == NoReg {
				return fmt.Errorf("%s: inst %d (%s): unassigned register", p.Name, i, in)
			}
			if int(r)+1 > p.NumRegs {
				p.NumRegs = int(r) + 1
			}
		}
	}
	return p.Validate()
}

// Validate checks structural invariants: branch targets in range, a
// terminating exit reachable, predicate indices valid, memory spaces set.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("%s: empty program", p.Name)
	}
	sawExit := false
	for i := range p.Insts {
		in := &p.Insts[i]
		switch {
		case in.Op >= numOpcodes:
			return fmt.Errorf("%s: inst %d: invalid opcode %d", p.Name, i, in.Op)
		case in.Op == OpBra:
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("%s: inst %d (%s): branch target %d out of range", p.Name, i, in, in.Target)
			}
		case in.Op == OpExit:
			sawExit = true
		case in.Op.IsMemory():
			if in.Space == SpaceNone || in.Space > SpaceParam {
				return fmt.Errorf("%s: inst %d (%s): missing address space", p.Name, i, in)
			}
			if in.Op == OpSt && in.Space == SpaceParam {
				return fmt.Errorf("%s: inst %d (%s): store to read-only param space", p.Name, i, in)
			}
			if in.Op == OpAtom && in.Space != SpaceGlobal && in.Space != SpaceShared {
				return fmt.Errorf("%s: inst %d (%s): atomics require global or shared space", p.Name, i, in)
			}
		case in.Op == OpSetp:
			if in.PDst >= NumPredRegs {
				return fmt.Errorf("%s: inst %d (%s): predicate destination out of range", p.Name, i, in)
			}
		}
		if in.Guard.Valid() && in.Guard.Pred >= NumPredRegs {
			return fmt.Errorf("%s: inst %d (%s): guard predicate out of range", p.Name, i, in)
		}
	}
	if !sawExit {
		return fmt.Errorf("%s: no exit instruction", p.Name)
	}
	return nil
}

// BoundaryCount returns the number of instructions carrying a region
// boundary annotation.
func (p *Program) BoundaryCount() int {
	n := 0
	for i := range p.Insts {
		if p.Insts[i].Boundary {
			n++
		}
	}
	return n
}

// String disassembles the whole program, marking region boundaries with a
// "--" line, in a form that Parse accepts back (modulo synthesized labels).
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: %d insts, %d regs, %dB shared, %dB local\n",
		p.Name, len(p.Insts), p.NumRegs, p.SharedBytes, p.LocalBytes)
	labels := p.labelTargets()
	for i := range p.Insts {
		in := &p.Insts[i]
		if l, ok := labels[i]; ok {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if in.Boundary {
			b.WriteString("    --\n")
		}
		inst := in.String()
		if in.Op == OpBra {
			inst = in.Guard.String() + "bra " + labels[in.Target]
		}
		fmt.Fprintf(&b, "    %s\n", inst)
	}
	return b.String()
}

// labelTargets synthesizes labels for all branch targets.
func (p *Program) labelTargets() map[int]string {
	labels := map[int]string{}
	for i := range p.Insts {
		if p.Insts[i].Op == OpBra {
			t := p.Insts[i].Target
			if _, ok := labels[t]; !ok {
				labels[t] = fmt.Sprintf("L%d", t)
			}
		}
	}
	return labels
}

// Dim3 is a 3-component geometry vector (block or grid dimensions).
type Dim3 struct{ X, Y, Z int }

// Count returns X*Y*Z (total threads in a block / blocks in a grid).
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// String returns "XxYxZ".
func (d Dim3) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }
