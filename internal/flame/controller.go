package flame

import (
	"math"
	"math/bits"
	"slices"

	"flame/internal/gpu"
	"flame/internal/isa"
	"flame/internal/regions"
)

// Mode configures the resilience behaviour the controller enforces.
type Mode struct {
	// WCDL is the sensors' worst-case detection latency in cycles (the
	// RBQ conveyor depth).
	WCDL int
	// UseRBQ enables WCDL-aware warp scheduling: a warp hitting a region
	// boundary is descheduled into the RBQ for WCDL cycles (sensor-based
	// detection schemes). When false, region boundaries advance the RPT
	// immediately (duplication/hybrid detection: errors are caught within
	// the region).
	UseRBQ bool
	// Sections are the extended regions produced by the III-E
	// optimization; they are verified collectively per thread block.
	Sections []regions.Section
	// CkptSlots is non-nil under the checkpointing recovery scheme: the
	// local-memory slot of each checkpointed register. Recovery restores
	// committed checkpoint values.
	CkptSlots map[isa.Reg]int32
	// EagerSectionVerify disables the mid-section verification skip
	// (ablation): boundaries strictly inside extended sections then wait
	// in the RBQ even though they cannot advance the recovery PC.
	EagerSectionVerify bool
}

// Stats counts controller events.
type Stats struct {
	// Enqueues / Pops count RBQ traffic; Flushed counts entries discarded
	// by recoveries.
	Enqueues, Pops, Flushed int64
	// MaxRBQ is the maximum conveyor occupancy observed.
	MaxRBQ int
	// CollectiveApplies counts section verifications applied block-wide.
	CollectiveApplies int64
	// Recoveries counts error recoveries performed.
	Recoveries int64
	// UndoneAtomics counts atomic operations reverted during recovery.
	UndoneAtomics int64
	// RestoredRegs counts checkpoint-restored register values.
	RestoredRegs int64
}

// maxLanes bounds a warp's lane count (gpu.Config validates WarpSize
// <= 32), so lane sets fit a uint32 like the warp's own masks.
const maxLanes = 32

// ckptBuf is one warp's checkpoint state under the checkpointing
// recovery scheme. Values are indexed lane*K + slot, where K is the
// number of checkpointed registers and slots number them in ascending
// register order; the parallel set masks hold, per slot, the lanes whose
// entry is live. pend holds values checkpointed in the current,
// unverified region; comm holds the committed values a recovery
// restores.
type ckptBuf struct {
	pend, comm       []uint32
	pendSet, commSet []uint32
}

// undoEntry is one lane-level atomic update to revert on recovery: the
// old value at addr in global memory, or in the shared memory of block
// slot blk on the warp's SM.
type undoEntry struct {
	warp  int // device-wide warp slot
	space isa.Space
	blk   int // shared-space updates only
	addr  uint32
	old   uint32
}

// none marks an absent PC: an empty RPT or pending-section entry, or no
// cleared crossing.
const none = -1

// warpState is the controller's state for one warp slot. It belongs to
// the warp resident in the slot: forgetWarp empties it when the warp
// retires, before the slot can take another warp.
type warpState struct {
	// rpt is the warp's RPT entry, its recovery point (PC none when
	// the slot is empty).
	rpt Snapshot
	// cleared is the PC of a crossing already verified, which the warp
	// passes once without verifying again, or none.
	cleared int
	// pending is a verified section-completing boundary awaiting the
	// whole block (PC none when there is none).
	pending Snapshot
	// ckpt is the warp's checkpoint buffer under the checkpointing
	// recovery scheme, nil until its first checkpoint store.
	ckpt *ckptBuf
}

// emptyWarp is a slot's state before its warp dispatches.
var emptyWarp = warpState{rpt: Snapshot{PC: none}, cleared: none, pending: Snapshot{PC: none}}

// Controller implements the Flame hardware: RPT + RBQ + recovery. Attach
// it to a device run via Hooks().
type Controller struct {
	Mode  Mode
	Stats Stats

	// Inj, when set, injects faults and models the sensors: the
	// controller runs one recovery per report it makes (Injector.Reports).
	Inj *Injector

	// rbqs holds one verification conveyor per (SM, warp scheduler), as
	// in the paper's hardware (Section III-D2), indexed
	// smID*SchedulersPerSM+sched and grown on first use (a flat slice:
	// the pop walk visits every conveyor, and map probes there were a
	// measurable share of campaign time).
	rbqs []*RBQ
	// nextPop is a lower bound on the cycle of the next conveyor pop
	// (math.MaxInt64 when every conveyor is empty): a push lowers it to
	// its entry's pop cycle and onCycle, once it pops, recomputes it as
	// the earliest head. Until the clock reaches it onCycle skips the
	// conveyor walk.
	nextPop int64
	// warps holds the per-warp state (RPT entry, cleared crossing,
	// pending section snapshot, checkpoint buffer) indexed by the
	// device-wide warp slot sm.ID*MaxWarpsPerSM + w.ID, as the
	// hardware's RPT holds one entry per warp slot, and grown on first
	// use. npending counts the slots with a pending section snapshot.
	warps    []warpState
	npending int

	// ckptRegs lists the checkpointed registers in ascending order and
	// ckptSlot, indexed by register, inverts it (checkpoint stores only
	// name checkpointed registers); ckptFree recycles the buffers of
	// retired warps.
	ckptRegs []isa.Reg
	ckptSlot []int
	ckptFree []*ckptBuf

	undo []undoEntry
}

// NewController creates a controller for one device run.
func NewController(mode Mode) *Controller {
	c := &Controller{}
	c.Reset(mode)
	return c
}

// Reset makes c the controller NewController(mode) returns, for a new
// device run, reusing its storage: its warp-slot table, conveyors,
// checkpoint buffers of the same size and undo log.
func (c *Controller) Reset(mode Mode) {
	if mode.WCDL < 1 {
		mode.WCDL = 1
	}
	regs := c.ckptRegs[:0]
	for r := range mode.CkptSlots {
		regs = append(regs, r)
	}
	slices.Sort(regs)
	if len(regs) != len(c.ckptRegs) {
		// Checkpoint buffers are sized by the register count.
		c.dropCkptBufs()
	}
	c.ckptRegs = regs
	if n := len(regs); n > 0 {
		m := int(regs[n-1]) + 1
		c.ckptSlot = slices.Grow(c.ckptSlot[:0], m)[:m]
		for slot, r := range regs {
			c.ckptSlot[r] = slot
		}
	}
	c.Mode, c.Stats, c.Inj = mode, Stats{}, nil
	for _, q := range c.rbqs {
		if q != nil {
			*q = RBQ{entries: q.entries[:0], Depth: mode.WCDL}
		}
	}
	c.nextPop = math.MaxInt64
	for i := range c.warps {
		if b := c.warps[i].ckpt; b != nil {
			c.ckptFree = append(c.ckptFree, b)
		}
		c.warps[i] = emptyWarp
	}
	c.npending = 0
	c.undo = c.undo[:0]
}

// dropCkptBufs discards every checkpoint buffer, pooled or held.
func (c *Controller) dropCkptBufs() {
	for i := range c.warps {
		c.warps[i].ckpt = nil
	}
	c.ckptFree = nil
}

// Hooks returns the simulator hooks realizing this controller.
func (c *Controller) Hooks() *gpu.Hooks {
	return &gpu.Hooks{
		BeforeIssue:    c.beforeIssue,
		IssueAt:        verifiesAt,
		OnExecuted:     c.onExecuted,
		OnAtomic:       c.onAtomic,
		OnCycle:        c.onCycle,
		OnWarpDispatch: c.onWarpDispatch,
	}
}

// slotOf returns w's device-wide warp slot.
func slotOf(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) int {
	return sm.ID*d.Cfg.MaxWarpsPerSM + w.ID
}

// warp returns the state of warp slot i, growing the table to hold it.
func (c *Controller) warp(i int) *warpState {
	for i >= len(c.warps) {
		c.warps = append(c.warps, emptyWarp)
	}
	return &c.warps[i]
}

// onWarpDispatch seeds the warp's recovery point with its launch state,
// so the per-issue path never has to probe for a missing RPT entry.
func (c *Controller) onWarpDispatch(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) {
	if cap(c.warps) == 0 {
		// Room for every slot of the device at once.
		c.warps = make([]warpState, 0, len(d.SMs)*d.Cfg.MaxWarpsPerSM)
	}
	c.warp(slotOf(d, sm, w)).rpt = snapshotOf(w)
}

func (c *Controller) rbqOf(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) *RBQ {
	idx := sm.ID*d.Cfg.SchedulersPerSM + w.ID%d.Cfg.SchedulersPerSM
	for idx >= len(c.rbqs) {
		c.rbqs = append(c.rbqs, nil)
	}
	if c.rbqs[idx] == nil {
		c.rbqs[idx] = &RBQ{Depth: c.Mode.WCDL}
	}
	return c.rbqs[idx]
}

// verifiesAt reports whether issuing in crosses a region boundary that
// needs verification: an annotated boundary or a thread exit (the final
// region is verified before the warp may retire). It is the hooks'
// IssueAt: beforeIssue acts nowhere else.
func verifiesAt(in *isa.Inst) bool {
	return in.Boundary || in.Op == isa.OpExit
}

func (c *Controller) beforeIssue(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) bool {
	pc := w.PC()
	if !verifiesAt(&d.Kernel().Insts[pc]) {
		return true
	}
	if !c.Mode.EagerSectionVerify && c.midSection(pc) {
		// A boundary strictly inside an extended section cannot advance
		// the recovery PC (the section is verified collectively at its
		// end), so waiting for its verification buys nothing: any error
		// before the section-end verification rolls the whole block back
		// to its pre-section recovery points. Skip the conveyor.
		return true
	}
	slot := slotOf(d, sm, w)
	s := c.warp(slot)
	if s.cleared == pc {
		// This crossing was verified; consume the clearance and proceed.
		s.cleared = none
		return true
	}
	snap := snapshotOf(w)
	if !c.Mode.UseRBQ {
		// Immediate-detection schemes: the finished region is known
		// error-free at its end; advance the RPT without any delay.
		c.advanceRPT(slot, snap)
		s.cleared = pc
		return true
	}
	q := c.rbqOf(d, sm, w)
	if !q.CanPush(d.Cyc) {
		// The conveyor accepts one warp per cycle and holds at most WCDL
		// entries; the warp retries next cycle (a structural stall).
		return false
	}
	c.nextPop = min(c.nextPop, q.Push(w.ID, snap, d.Cyc))
	if q.Len() > c.Stats.MaxRBQ {
		c.Stats.MaxRBQ = q.Len()
	}
	c.Stats.Enqueues++
	w.SetSuspended(true)
	return false
}

// advanceRPT commits a verified boundary of the warp in slot: the
// snapshot becomes its recovery point, pending checkpoints commit, and
// its atomic undo entries are dropped.
func (c *Controller) advanceRPT(slot int, snap Snapshot) {
	s := c.warp(slot)
	s.rpt = snap
	if s.ckpt != nil {
		s.ckpt.commit()
	}
	if len(c.undo) > 0 {
		kept := c.undo[:0]
		for _, e := range c.undo {
			if e.warp != slot {
				kept = append(kept, e)
			}
		}
		c.undo = kept
	}
}

// sectionCrossed returns the instruction span of a section completed by
// verifying the region [rptPC, snapPC), or ok=false.
func (c *Controller) sectionCrossed(rptPC, snapPC int) (regions.Section, bool) {
	for _, s := range c.Mode.Sections {
		if rptPC < s.End && snapPC >= s.End {
			return s, true
		}
	}
	return regions.Section{}, false
}

// midSection reports whether pc lies strictly inside a section.
func (c *Controller) midSection(pc int) bool {
	for _, s := range c.Mode.Sections {
		if pc > s.Start && pc < s.End {
			return true
		}
	}
	return false
}

func (c *Controller) onCycle(d *gpu.Device) {
	// Detection first: an error detected this cycle invalidates pops that
	// would otherwise complete this cycle.
	if c.Inj != nil {
		for n := c.Inj.Reports(d.Cyc); n > 0; n-- {
			c.Recover(d)
		}
	}
	if d.Cyc >= c.nextPop {
		c.popDue(d)
	}
	c.applyCompleteSections(d)
}

// popDue pops each conveyor's due entry and recomputes nextPop from
// the conveyors' new heads. Conveyor order matches (SM, scheduler)
// index order by construction of rbqOf's flat indexing.
func (c *Controller) popDue(d *gpu.Device) {
	nsched := d.Cfg.SchedulersPerSM
	next := int64(math.MaxInt64)
	for idx, q := range c.rbqs {
		if q == nil {
			continue
		}
		c.popOne(d, d.SMs[idx/nsched], q)
		if q.Len() > 0 {
			next = min(next, q.NextReady())
		}
	}
	c.nextPop = next
}

// popOne dequeues at most one verified entry from a conveyor.
func (c *Controller) popOne(d *gpu.Device, sm *gpu.SM, q *RBQ) {
	e, ok := q.Pop(d.Cyc)
	if !ok {
		return
	}
	c.Stats.Pops++
	w := sm.Warps[e.warp]
	if w == nil || w.Finished {
		return
	}
	slot := slotOf(d, sm, w)
	s := c.warp(slot)
	if _, collective := c.sectionCrossed(s.rpt.PC, e.snap.PC); collective {
		// The verified region completes an extended section: hold the
		// warp until every live warp of its block completes it too.
		if s.pending.PC == none {
			c.npending++
		}
		s.pending = e.snap
		return // warp stays suspended
	}
	if c.midSection(e.snap.PC) {
		// Possible only under EagerSectionVerify: the wait elapsed, but
		// the recovery PC must not move inside a collectively recovered
		// section.
		s.cleared = e.snap.PC
		w.SetSuspended(false)
		return
	}
	c.advanceRPT(slot, e.snap)
	s.cleared = e.snap.PC
	w.SetSuspended(false)
}

// applyCompleteSections releases blocks whose live warps all verified an
// extended section. Only live warps hold pending snapshots (forgetWarp
// drops a retired warp's), so a complete block applies all of its own.
func (c *Controller) applyCompleteSections(d *gpu.Device) {
	if c.npending == 0 {
		return
	}
	for _, sm := range d.SMs {
		base := sm.ID * d.Cfg.MaxWarpsPerSM
		for _, b := range sm.Blocks {
			alive := 0
			complete := true
			for _, wi := range b.WarpIdx {
				w := sm.Warps[wi]
				if w == nil || w.Finished {
					continue
				}
				alive++
				if c.warp(base+wi).pending.PC == none {
					complete = false
				}
			}
			if alive == 0 || !complete {
				continue
			}
			for _, wi := range b.WarpIdx {
				s := c.warp(base + wi)
				if s.pending.PC == none {
					continue
				}
				snap := s.pending
				s.pending = Snapshot{PC: none}
				c.npending--
				c.advanceRPT(base+wi, snap)
				s.cleared = snap.PC
				sm.Warps[wi].SetSuspended(false)
			}
			c.Stats.CollectiveApplies++
		}
	}
}

func (c *Controller) onExecuted(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	in := &d.Kernel().Insts[pc]
	if c.Mode.CkptSlots != nil && in.Origin == isa.OrigCheckpoint {
		c.recordCkpt(slotOf(d, sm, w), w, in.Src[1].Reg)
	}
	if c.Inj != nil {
		c.Inj.Observe(d, sm, w, pc)
	}
	if w.Finished {
		c.forgetWarp(slotOf(d, sm, w))
	}
}

func (c *Controller) onAtomic(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, space isa.Space, addr, old uint32, lane int) {
	e := undoEntry{warp: slotOf(d, sm, w), space: space, addr: addr, old: old}
	if space == isa.SpaceShared {
		e.blk = w.BlockSlot
	}
	c.undo = append(c.undo, e)
}

// forgetWarp empties a slot once its warp retires (its final region was
// verified before the exit issued), recycling the checkpoint buffer.
func (c *Controller) forgetWarp(slot int) {
	s := c.warp(slot)
	if s.ckpt != nil {
		c.ckptFree = append(c.ckptFree, s.ckpt)
	}
	if s.pending.PC != none {
		c.npending--
	}
	*s = emptyWarp
}

// recordCkpt records a checkpoint store of reg per active lane of w, the
// warp in slot; the values commit into the restore set when the
// containing region verifies.
func (c *Controller) recordCkpt(slot int, w *gpu.Warp, reg isa.Reg) {
	s := c.warp(slot)
	if s.ckpt == nil {
		s.ckpt = c.newCkptBuf()
	}
	b, k, rs := s.ckpt, len(c.ckptRegs), c.ckptSlot[reg]
	for m := w.ActiveMask() & w.RegLanes(); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		b.pend[lane*k+rs] = w.Reg(lane, reg)
		b.pendSet[rs] |= 1 << lane
	}
}

// newCkptBuf takes a retired warp's buffer, cleared, or allocates one.
func (c *Controller) newCkptBuf() *ckptBuf {
	if n := len(c.ckptFree); n > 0 {
		b := c.ckptFree[n-1]
		c.ckptFree = c.ckptFree[:n-1]
		clear(b.pendSet)
		clear(b.commSet)
		return b
	}
	k := len(c.ckptRegs)
	return &ckptBuf{
		pend: make([]uint32, maxLanes*k), comm: make([]uint32, maxLanes*k),
		pendSet: make([]uint32, k), commSet: make([]uint32, k),
	}
}

// copyFrom makes b a copy of src, a buffer of the same size.
func (b *ckptBuf) copyFrom(src *ckptBuf) {
	copy(b.pend, src.pend)
	copy(b.comm, src.comm)
	copy(b.pendSet, src.pendSet)
	copy(b.commSet, src.commSet)
}

// commit moves the pending checkpoints into the committed set.
func (b *ckptBuf) commit() {
	k := len(b.pendSet)
	for slot, m := range b.pendSet {
		b.commSet[slot] |= m
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)*k + slot
			b.comm[i] = b.pend[i]
		}
		b.pendSet[slot] = 0
	}
}

// restoreCkpt drops the pending checkpoints of w, the warp in slot, and
// restores its region inputs from the committed ones, in (lane,
// register) order.
func (c *Controller) restoreCkpt(slot int, w *gpu.Warp) {
	b := c.warp(slot).ckpt
	if b == nil {
		return
	}
	clear(b.pendSet)
	k := len(c.ckptRegs)
	for m := w.RegLanes(); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		for slot, r := range c.ckptRegs {
			if b.commSet[slot]&(1<<lane) != 0 {
				w.SetReg(lane, r, b.comm[lane*k+slot])
				c.Stats.RestoredRegs++
			}
		}
	}
}

// Recover performs full error recovery: flush the RBQ, revert unverified
// atomics, restore checkpointed inputs (checkpointing scheme), and reset
// every live warp to its recovery snapshot (Section III-D1).
func (c *Controller) Recover(d *gpu.Device) {
	c.Stats.Recoveries++
	for _, q := range c.rbqs {
		if q != nil {
			c.Stats.Flushed += int64(q.Flush())
		}
	}
	c.nextPop = math.MaxInt64
	// Revert unverified atomics, newest first.
	maxWarps := d.Cfg.MaxWarpsPerSM
	for i := len(c.undo) - 1; i >= 0; i-- {
		e := c.undo[i]
		if e.space == isa.SpaceShared {
			d.SMs[e.warp/maxWarps].Blocks[e.blk].Shared[e.addr/4] = e.old
		} else {
			_ = d.Mem.Store(e.addr, e.old)
		}
		c.Stats.UndoneAtomics++
	}
	c.undo = c.undo[:0]

	for _, sm := range d.SMs {
		for i, w := range sm.Warps {
			if w == nil || w.Finished {
				continue
			}
			slot := sm.ID*maxWarps + i
			s := c.warp(slot)
			snap := s.rpt
			if snap.PC == none {
				snap = snapshotOf(w)
			}
			w.Restore(snap.PC, snap.Stack, snap.BarGen, d.Cyc)
			s.cleared = snap.PC
			c.restoreCkpt(slot, w)
		}
		// Re-synchronize replayed barriers.
		for _, b := range sm.Blocks {
			if b.GlobalID >= 0 {
				sm.ResetBarrierGen(b)
			}
		}
	}
	if c.npending > 0 {
		for i := range c.warps {
			c.warps[i].pending = Snapshot{PC: none}
		}
		c.npending = 0
	}
}

// CopyFrom makes c a copy of src, reusing c's storage: its Mode, Stats,
// injector, RBQ conveyors, per-warp state and undo log. Snapshots are
// shared with src, which is safe because nothing writes a snapshot's
// stack in place. The state is keyed by warp slot, which
// gpu.Device.CopyFrom keeps, so c can drive a copy of the device src
// drives.
func (c *Controller) CopyFrom(src *Controller) {
	if len(c.ckptRegs) != len(src.ckptRegs) {
		// Checkpoint buffers are sized by the register count.
		c.dropCkptBufs()
	}
	c.Mode, c.Stats, c.Inj = src.Mode, src.Stats, src.Inj
	c.ckptRegs = append(c.ckptRegs[:0], src.ckptRegs...)
	c.ckptSlot = append(c.ckptSlot[:0], src.ckptSlot...)
	c.rbqs = slices.Grow(c.rbqs[:0], len(src.rbqs))[:len(src.rbqs)]
	for i, q := range src.rbqs {
		switch {
		case q == nil:
			c.rbqs[i] = nil
		case c.rbqs[i] == nil:
			c.rbqs[i] = &RBQ{}
			fallthrough
		default:
			c.rbqs[i].copyFrom(q)
		}
	}
	for len(c.warps) < len(src.warps) {
		c.warps = append(c.warps, emptyWarp)
	}
	for i := range c.warps {
		s, b := &emptyWarp, c.warps[i].ckpt // slots past src's are empty
		if i < len(src.warps) {
			s = &src.warps[i]
		}
		c.warps[i] = *s
		switch {
		case s.ckpt != nil:
			if b == nil {
				b = c.newCkptBuf()
			}
			b.copyFrom(s.ckpt)
			c.warps[i].ckpt = b
		case b != nil:
			c.ckptFree = append(c.ckptFree, b)
		}
	}
	c.nextPop, c.npending = src.nextPop, src.npending
	c.undo = append(c.undo[:0], src.undo...)
}

// Accumulate adds another controller's counters into s (multi-kernel
// applications sum their launches).
func (s *Stats) Accumulate(o *Stats) {
	s.Enqueues += o.Enqueues
	s.Pops += o.Pops
	s.Flushed += o.Flushed
	if o.MaxRBQ > s.MaxRBQ {
		s.MaxRBQ = o.MaxRBQ
	}
	s.CollectiveApplies += o.CollectiveApplies
	s.Recoveries += o.Recoveries
	s.UndoneAtomics += o.UndoneAtomics
	s.RestoredRegs += o.RestoredRegs
}
