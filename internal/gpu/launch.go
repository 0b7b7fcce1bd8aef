package gpu

import (
	"fmt"
	"slices"

	"flame/internal/isa"
	"flame/internal/kernel"
)

// Launch describes one kernel launch.
type Launch struct {
	Prog   *isa.Program
	Grid   isa.Dim3
	Block  isa.Dim3
	Params []uint32
	// MaxCycles, when positive, bounds this launch's simulated cycles,
	// overriding the device-wide Device.MaxCycles guard. Fault-injection
	// campaigns set it to a small multiple of the fault-free window so a
	// corrupted-control livelock is cut off in milliseconds instead of
	// running to the 200M-cycle device default.
	MaxCycles int64
	// Stop, when non-nil, is polled periodically during the run (about
	// once per 1024 outer-loop iterations, so at most every few thousand
	// simulated cycles). When it returns true the run aborts with an
	// error wrapping ErrWallClock. It is the wall-clock complement to
	// MaxCycles: the cycle budget bounds simulated time, Stop bounds
	// host time. The predicate must be cheap and side-effect free.
	Stop func() bool
}

// Validate checks launch sanity against a configuration.
func (l *Launch) Validate(cfg *Config) error {
	switch {
	case l.Prog == nil:
		return fmt.Errorf("gpu: launch without program")
	case l.Grid.Count() <= 0 || l.Block.Count() <= 0:
		return fmt.Errorf("gpu: empty grid or block")
	case l.Block.Count() > cfg.MaxWarpsPerSM*cfg.WarpSize:
		return fmt.Errorf("gpu: block of %d threads exceeds SM capacity", l.Block.Count())
	case l.Prog.SharedBytes > cfg.SharedMemPerSM:
		return fmt.Errorf("gpu: kernel needs %d B shared, SM has %d", l.Prog.SharedBytes, cfg.SharedMemPerSM)
	}
	if err := l.Prog.Validate(); err != nil {
		return err
	}
	return nil
}

// BlocksPerSM computes the occupancy: how many blocks of this launch fit
// on one SM simultaneously.
func (l *Launch) BlocksPerSM(cfg *Config) int {
	warpsPerBlock := (l.Block.Count() + cfg.WarpSize - 1) / cfg.WarpSize
	n := cfg.MaxBlocksPerSM
	if byWarps := cfg.MaxWarpsPerSM / warpsPerBlock; byWarps < n {
		n = byWarps
	}
	regsPerBlock := l.Prog.NumRegs * l.Block.Count()
	if regsPerBlock > 0 {
		if byRegs := cfg.RegistersPerSM / regsPerBlock; byRegs < n {
			n = byRegs
		}
	}
	if l.Prog.SharedBytes > 0 {
		if byShared := cfg.SharedMemPerSM / l.Prog.SharedBytes; byShared < n {
			n = byShared
		}
	}
	if n < 1 {
		n = 0
	}
	return n
}

// compiledKernel holds the per-program structures shared by all warps
// of a launch. It is built once per launch (Device.Run), after the
// compiler passes have finished mutating the program.
type compiledKernel struct {
	prog *isa.Program
	info *kernel.Info
	// desc[pc] is instruction pc's predecoded issue descriptor.
	desc []issueDesc
	// consts[pc][i] is the 32-lane row of instruction pc's source
	// operand i when that operand is a constant: an immediate, or zero
	// for an absent or predicate operand. It is nil for a register or a
	// special register, whose rows differ per warp.
	consts []operandRows
}

// operandRows is one instruction's constant source rows (see
// compiledKernel.consts).
type operandRows [3]*isa.Row

// issueDesc is what the issue gate needs to know about an instruction:
// the scoreboard entries it waits on, the structural hazards it is
// subject to, and whether the hooks' BeforeIssue acts on it.
type issueDesc struct {
	// regs[:nregs] are the registers read and the one written;
	// preds[:npreds] the guard, selp and setp predicates.
	regs   [4]isa.Reg
	preds  [3]isa.PredReg
	nregs  uint8
	npreds uint8
	hz     uint8
	hook   bool
}

func compileKernel(p *isa.Program, h *Hooks) *compiledKernel {
	k := &compiledKernel{
		prog:   p,
		info:   kernel.Analyze(p),
		desc:   make([]issueDesc, len(p.Insts)),
		consts: make([]operandRows, len(p.Insts)),
	}
	// Instructions share one constant row per distinct value.
	var vals []uint32
	for pc := range p.Insts {
		in := &p.Insts[pc]
		k.desc[pc] = describe(in, h.issueAt(in))
		for _, o := range in.Src {
			if isConst(o) && !slices.Contains(vals, uint32(o.Imm)) {
				vals = append(vals, uint32(o.Imm))
			}
		}
	}
	rows := make([]isa.Row, len(vals))
	for j, v := range vals {
		for lane := range rows[j] {
			rows[j][lane] = v
		}
	}
	for pc := range p.Insts {
		for i, o := range p.Insts[pc].Src {
			if isConst(o) {
				k.consts[pc][i] = &rows[slices.Index(vals, uint32(o.Imm))]
			}
		}
	}
	return k
}

// isConst reports whether a source operand has the same value in every
// lane of every warp: anything but a register or a special register.
func isConst(o isa.Operand) bool {
	return o.Kind != isa.OperReg && o.Kind != isa.OperSpecial
}

// describe predecodes an instruction's issue descriptor.
func describe(in *isa.Inst, hook bool) issueDesc {
	dc := issueDesc{hook: hook}
	var uses [3]isa.Reg
	for _, r := range in.Uses(uses[:0]) {
		dc.regs[dc.nregs] = r
		dc.nregs++
	}
	if r := in.Defs(); r != isa.NoReg {
		dc.regs[dc.nregs] = r
		dc.nregs++
	}
	var preds [2]isa.PredReg
	for _, p := range in.UsesPred(preds[:0]) {
		dc.preds[dc.npreds] = p
		dc.npreds++
	}
	if p := in.DefsPred(); p != isa.NoPred {
		dc.preds[dc.npreds] = p
		dc.npreds++
	}
	if in.Op.IsMemory() {
		dc.hz |= hzLSU
		if in.Space == isa.SpaceGlobal {
			dc.hz |= hzMSHR
		}
	}
	if in.Op.IsSFU() {
		dc.hz |= hzSFU
	}
	return dc
}
