package gpu

import "flame/internal/isa"

// SIMTEntry is one reconvergence-stack entry: execute at PC with Mask
// until PC reaches RPC, then pop.
type SIMTEntry struct {
	PC   int
	RPC  int // reconvergence PC; len(prog) means "at exit"
	Mask uint32
}

// SIMTStack is a warp's divergence reconvergence stack.
type SIMTStack []SIMTEntry

// Clone returns an independent copy (used by RPT snapshots).
func (s SIMTStack) Clone() SIMTStack {
	t := make(SIMTStack, len(s))
	copy(t, s)
	return t
}

// Warp is one warp resident on an SM.
type Warp struct {
	// ID is the warp's index within its SM (stable while resident).
	ID int
	// BlockSlot is the SM-local slot of the warp's thread block.
	BlockSlot int
	// GlobalBlock is the launch-wide block index.
	GlobalBlock int
	// WarpInBlock is the warp's index within its block.
	WarpInBlock int
	// AliveMask has a bit per lane holding a live (non-exited) thread.
	AliveMask uint32
	// Stack is the SIMT reconvergence stack; the top entry carries the
	// current PC and active mask.
	Stack SIMTStack

	// regs is the register file, register-major as in hardware: row r,
	// one word per lane, is regs[r*isa.Lanes:(r+1)*isa.Lanes]. Only the
	// lanes in regLanes hold a thread; the other words are never read.
	regs []uint32
	// regLanes has a bit per lane holding a thread (exited or not).
	regLanes uint32
	// preds[p] is predicate register p as a lane mask.
	preds [isa.NumPredRegs]uint32

	// regReady[r] is the cycle at which register r's pending write
	// completes; issue of a dependent instruction waits for it.
	regReady []int64
	// predReady[p] is the same for predicate registers.
	predReady [isa.NumPredRegs]int64

	// BarGen counts barrier releases the warp has participated in.
	BarGen int
	// Finished is set when every lane has exited.
	Finished bool

	// lastExec is the lane mask the most recently executed instruction
	// actually ran with (active mask AND guard predicate, captured
	// before any reconvergence pop). See LastExecMask.
	lastExec uint32
	// LastIssue is the cycle this warp last issued (scheduler bookkeeping).
	LastIssue int64
	// Age is the dispatch sequence number (for oldest-first policies).
	Age int64

	// laneThread[lane] is the block-linear thread id of each lane, or -1.
	laneThread [isa.Lanes]int
	// localData is per-thread local memory (spills, checkpoints), one
	// localWords span per lane, recycled with the warp across
	// placeBlock calls.
	localData  []uint32
	localWords int

	// sm is the SM the warp is resident on, nil for a detached warp.
	// State the issue scan keeps as warp-slot bitmasks (suspension,
	// barrier parking, the scoreboard gate) lives there, not here.
	sm *SM
}

// NewWarp returns a detached warp (resident on no SM) with nregs
// registers whose threads occupy the given lanes, all alive and active
// at PC 0, every register zero. It serves tests and tools that drive
// warp-level code outside a device.
func NewWarp(nregs int, lanes uint32) *Warp {
	return &Warp{
		AliveMask: lanes,
		Stack:     SIMTStack{{Mask: lanes}},
		regs:      make([]uint32, nregs*isa.Lanes),
		regLanes:  lanes,
		regReady:  make([]int64, nregs),
	}
}

// local returns a lane's local memory.
func (w *Warp) local(lane int) []uint32 {
	n := w.localWords
	return w.localData[lane*n : (lane+1)*n : (lane+1)*n]
}

// row returns register r's lane row.
func (w *Warp) row(r isa.Reg) *isa.Row {
	o := int(r) * isa.Lanes
	return (*isa.Row)(w.regs[o : o+isa.Lanes])
}

// Reg returns register r of a lane; the lane must hold a thread (see
// RegLanes).
func (w *Warp) Reg(lane int, r isa.Reg) uint32 { return w.regs[int(r)*isa.Lanes+lane] }

// SetReg writes register r of a lane; the lane must hold a thread.
func (w *Warp) SetReg(lane int, r isa.Reg, v uint32) { w.regs[int(r)*isa.Lanes+lane] = v }

// RegLanes returns the lanes that hold a thread, and so a register
// file: the launch's threads, including any that have since exited.
func (w *Warp) RegLanes() uint32 { return w.regLanes }

// Suspended reports whether a resilience hook descheduled the warp. The
// SM's suspended mask is the only record of it, so a detached or
// finished warp is never suspended.
func (w *Warp) Suspended() bool { return w.live() && w.sm.suspended&(1<<uint(w.ID)) != 0 }

// SetSuspended deschedules (true) or reschedules (false) the warp. A
// suspended warp is not schedulable and books RBQ wait cycles. It has no
// effect on a detached or finished warp.
func (w *Warp) SetSuspended(v bool) {
	if w.live() {
		w.sm.suspended = setBit(w.sm.suspended, w.ID, v)
	}
}

// AtBarrier reports whether the warp waits for a block barrier release,
// from the SM's atBarrier mask.
func (w *Warp) AtBarrier() bool { return w.live() && w.sm.atBarrier&(1<<uint(w.ID)) != 0 }

func (w *Warp) setAtBarrier(v bool) {
	if w.live() {
		w.sm.atBarrier = setBit(w.sm.atBarrier, w.ID, v)
	}
}

// live reports whether the warp is resident on an SM and unfinished:
// the warps whose slot bits in the SM's masks are theirs.
func (w *Warp) live() bool { return w.sm != nil && !w.Finished }

// setBit returns m with bit i set to v.
func setBit(m uint64, i int, v bool) uint64 {
	if v {
		return m | 1<<uint(i)
	}
	return m &^ (1 << uint(i))
}

// PC returns the warp's current program counter.
func (w *Warp) PC() int {
	return w.Stack[len(w.Stack)-1].PC
}

// ActiveMask returns the current execution mask (top of stack ∧ alive).
func (w *Warp) ActiveMask() uint32 {
	return w.Stack[len(w.Stack)-1].Mask & w.AliveMask
}

// LastExecMask returns the lane mask the most recently executed
// instruction ran with. Inside an OnExecuted hook this is the executing
// instruction's true lane set — unlike ActiveMask, which may already
// reflect a reconvergence pop or an exit and so include lanes that
// diverged around the instruction.
func (w *Warp) LastExecMask() uint32 {
	return w.lastExec
}

// setPC updates the top-of-stack PC.
func (w *Warp) setPC(pc int) {
	w.Stack[len(w.Stack)-1].PC = pc
}

// popReconverged pops stack entries whose reconvergence point has been
// reached or whose mask died, keeping at least one entry.
func (w *Warp) popReconverged() {
	for len(w.Stack) > 1 {
		top := &w.Stack[len(w.Stack)-1]
		if top.PC == top.RPC || top.Mask&w.AliveMask == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			continue
		}
		return
	}
}

// exitLanes retires the given lanes from the warp: they are removed from
// the alive mask and every stack entry.
func (w *Warp) exitLanes(mask uint32) {
	w.AliveMask &^= mask
	for i := range w.Stack {
		w.Stack[i].Mask &^= mask
	}
	if w.AliveMask == 0 {
		w.Finished = true
	}
}

// invalidateDeps discards the SM's memoized scoreboard gate for the
// warp (call after any scoreboard write or control-flow change).
func (w *Warp) invalidateDeps() {
	if w.sm != nil {
		w.sm.invalidate(w.ID)
	}
}

// ResetPipeline clears pending-write tracking (used at recovery: the
// pipeline is flushed, so every register is architecturally ready).
func (w *Warp) ResetPipeline(cycle int64) {
	for i := range w.regReady {
		w.regReady[i] = cycle
	}
	for i := range w.predReady {
		w.predReady[i] = cycle
	}
	w.invalidateDeps()
}

// Restore rewinds the warp's control state to a recovery snapshot.
func (w *Warp) Restore(pc int, stack SIMTStack, barGen int, cycle int64) {
	w.Stack = stack.Clone()
	w.setPC(pc)
	w.BarGen = barGen
	w.setAtBarrier(false)
	w.SetSuspended(false)
	w.ResetPipeline(cycle)
}
