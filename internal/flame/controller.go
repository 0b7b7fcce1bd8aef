package flame

import (
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

type undoEntry struct {
	w      *gpu.Warp
	space  isa.Space
	shared []uint32 // backing array for shared-space undo
	mem    *gpu.GlobalMem
	addr   uint32
	old    uint32
}

// Controller implements the Flame hardware: RPT + RBQ + recovery. Attach
// it to a device run via Hooks().
type Controller struct {
	Mode  Mode
	Stats Stats

	// Inj, when set, injects a fault and drives detection.
	Inj *Injector

	// FalsePositives lists cycles at which the sensors spuriously report
	// a strike (mis-calibration, Section IV): a full recovery runs with
	// no actual corruption. Must be sorted ascending.
	FalsePositives []int64
	nextFP         int

	// rbqs holds one verification conveyor per (SM, warp scheduler), as
	// in the paper's hardware (Section III-D2), indexed
	// smID*SchedulersPerSM+sched and grown on first use (a flat slice:
	// onCycle and onAdvance walk every conveyor every cycle, and map
	// probes there were a measurable share of campaign time).
	rbqs    []*RBQ
	rpt     map[*gpu.Warp]Snapshot
	cleared map[*gpu.Warp]int

	// ckptRegs lists the checkpointed registers in ascending order and
	// ckptSlot, indexed by register, inverts it (checkpoint stores only
	// name checkpointed registers); ckpt holds each warp's buffer and
	// ckptFree recycles the buffers of retired warps.
	ckptRegs []isa.Reg
	ckptSlot []int
	ckpt     map[*gpu.Warp]*ckptBuf
	ckptFree []*ckptBuf

	undo []undoEntry

	// sectionPending[block][warp] holds verified-but-unapplied snapshots
	// of section-completing boundaries awaiting the whole block.
	sectionPending map[*gpu.BlockState]map[*gpu.Warp]Snapshot
}

// NewController creates a controller for one device run.
func NewController(mode Mode) *Controller {
	if mode.WCDL < 1 {
		mode.WCDL = 1
	}
	c := &Controller{
		Mode:           mode,
		rpt:            map[*gpu.Warp]Snapshot{},
		cleared:        map[*gpu.Warp]int{},
		ckpt:           map[*gpu.Warp]*ckptBuf{},
		sectionPending: map[*gpu.BlockState]map[*gpu.Warp]Snapshot{},
	}
	for r := range mode.CkptSlots {
		c.ckptRegs = append(c.ckptRegs, r)
	}
	slices.Sort(c.ckptRegs)
	if n := len(c.ckptRegs); n > 0 {
		c.ckptSlot = make([]int, c.ckptRegs[n-1]+1)
		for slot, r := range c.ckptRegs {
			c.ckptSlot[r] = slot
		}
	}
	return c
}

// Hooks returns the simulator hooks realizing this controller.
func (c *Controller) Hooks() *gpu.Hooks {
	return &gpu.Hooks{
		BeforeIssue:    c.beforeIssue,
		OnExecuted:     c.onExecuted,
		OnAtomic:       c.onAtomic,
		OnCycle:        c.onCycle,
		OnAdvance:      c.onAdvance,
		OnBlockDone:    c.onBlockDone,
		OnWarpDispatch: c.onWarpDispatch,
	}
}

// onAdvance bounds event-driven fast-forwarding: while every scheduler
// is stalled this controller's onCycle only acts at discrete pending
// events — a sensor detection coming due, a scheduled false positive, or
// an RBQ entry reaching its pop cycle (which may in turn complete a
// collective section, in the same onCycle). New strikes, enqueues and
// section completions all require an executed instruction, which cannot
// happen inside the skipped span, so the earliest of those pending
// events is an exact bound. This is a pure query; it mutates nothing.
func (c *Controller) onAdvance(d *gpu.Device, from, to int64) int64 {
	t := to
	if c.Inj != nil {
		if due := c.Inj.NextDetection(); due >= 0 && due < t {
			t = due
		}
	}
	if c.nextFP < len(c.FalsePositives) && c.FalsePositives[c.nextFP] < t {
		t = c.FalsePositives[c.nextFP]
	}
	for _, q := range c.rbqs {
		if q != nil && q.Len() > 0 {
			if r := q.NextReady(); r < t {
				t = r
			}
		}
	}
	if t < from {
		t = from
	}
	return t
}

// onWarpDispatch seeds the warp's recovery point with its launch state,
// so the per-issue path never has to probe for a missing RPT entry.
func (c *Controller) onWarpDispatch(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) {
	c.rpt[w] = snapshotOf(w)
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

// boundaryAt reports whether issuing pc crosses a region boundary that
// needs verification: an annotated boundary or a thread exit (the final
// region is verified before the warp may retire).
func boundaryAt(prog *isa.Program, pc int) bool {
	in := &prog.Insts[pc]
	return in.Boundary || in.Op == isa.OpExit
}

func (c *Controller) beforeIssue(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) bool {
	pc := w.PC()
	if !boundaryAt(d.Kernel(), pc) {
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
	if cl, ok := c.cleared[w]; ok && cl == pc {
		// This crossing was verified; consume the clearance and proceed.
		delete(c.cleared, w)
		return true
	}
	snap := snapshotOf(w)
	if !c.Mode.UseRBQ {
		// Immediate-detection schemes: the finished region is known
		// error-free at its end; advance the RPT without any delay.
		c.advanceRPT(w, snap)
		c.cleared[w] = pc
		return true
	}
	q := c.rbqOf(d, sm, w)
	if !q.CanPush(d.Cyc) {
		// The conveyor accepts one warp per cycle and holds at most WCDL
		// entries; the warp retries next cycle (a structural stall).
		return false
	}
	q.Push(w, snap, d.Cyc)
	if q.Len() > c.Stats.MaxRBQ {
		c.Stats.MaxRBQ = q.Len()
	}
	c.Stats.Enqueues++
	w.Suspended = true
	return false
}

// advanceRPT commits a verified boundary: the snapshot becomes the
// warp's recovery point, pending checkpoints commit, and the warp's
// atomic undo entries are dropped.
func (c *Controller) advanceRPT(w *gpu.Warp, snap Snapshot) {
	c.rpt[w] = snap
	if b := c.ckpt[w]; b != nil {
		b.commit()
	}
	if len(c.undo) > 0 {
		kept := c.undo[:0]
		for _, e := range c.undo {
			if e.w != w {
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
	if c.Inj != nil && c.Inj.DetectionDue(d.Cyc) {
		c.Recover(d)
	}
	for c.nextFP < len(c.FalsePositives) && d.Cyc >= c.FalsePositives[c.nextFP] {
		c.Recover(d)
		c.nextFP++
	}
	// Conveyor order matches (SM, scheduler) index order by construction
	// of rbqOf's flat indexing.
	nsched := d.Cfg.SchedulersPerSM
	for idx, q := range c.rbqs {
		if q != nil {
			c.popOne(d, d.SMs[idx/nsched], q)
		}
	}
	c.applyCompleteSections(d)
}

// popOne dequeues at most one verified entry from a conveyor.
func (c *Controller) popOne(d *gpu.Device, sm *gpu.SM, q *RBQ) {
	e, ok := q.Pop(d.Cyc)
	if !ok {
		return
	}
	c.Stats.Pops++
	w := e.w
	if w.Finished {
		return
	}
	if _, collective := c.sectionCrossed(c.rpt[w].PC, e.snap.PC); collective {
		// The verified region completes an extended section: hold the
		// warp until every live warp of its block completes it too.
		b := sm.BlockOf(w)
		pend, ok := c.sectionPending[b]
		if !ok {
			pend = map[*gpu.Warp]Snapshot{}
			c.sectionPending[b] = pend
		}
		pend[w] = e.snap
		return // warp stays suspended
	}
	if c.midSection(e.snap.PC) {
		// Possible only under EagerSectionVerify: the wait elapsed, but
		// the recovery PC must not move inside a collectively recovered
		// section.
		c.cleared[w] = e.snap.PC
		w.Suspended = false
		return
	}
	c.advanceRPT(w, e.snap)
	c.cleared[w] = e.snap.PC
	w.Suspended = false
}

// applyCompleteSections releases blocks whose live warps all verified an
// extended section.
func (c *Controller) applyCompleteSections(d *gpu.Device) {
	if len(c.sectionPending) == 0 {
		return
	}
	for _, sm := range d.SMs {
		for _, b := range sm.Blocks {
			pend, ok := c.sectionPending[b]
			if !ok || b.GlobalID < 0 {
				continue
			}
			live := sm.WarpsOfBlock(b)
			alive := 0
			complete := true
			for _, w := range live {
				if w.Finished {
					continue
				}
				alive++
				if _, ok := pend[w]; !ok {
					complete = false
				}
			}
			if alive == 0 || !complete {
				continue
			}
			for w, snap := range pend {
				if w.Finished {
					continue
				}
				c.advanceRPT(w, snap)
				c.cleared[w] = snap.PC
				w.Suspended = false
			}
			delete(c.sectionPending, b)
			c.Stats.CollectiveApplies++
		}
	}
}

func (c *Controller) onExecuted(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	in := &d.Kernel().Insts[pc]
	if c.Mode.CkptSlots != nil && in.Origin == isa.OrigCheckpoint {
		c.recordCkpt(w, in.Src[1].Reg)
	}
	if c.Inj != nil {
		c.Inj.Observe(d, sm, w, pc)
	}
	if w.Finished {
		c.forgetWarp(w)
	}
}

func (c *Controller) onAtomic(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, space isa.Space, addr, old uint32, lane int) {
	e := undoEntry{w: w, space: space, addr: addr, old: old}
	if space == isa.SpaceShared {
		e.shared = sm.BlockOf(w).Shared
	} else {
		e.mem = d.Mem
	}
	c.undo = append(c.undo, e)
}

func (c *Controller) onBlockDone(d *gpu.Device, sm *gpu.SM, gb int) {
	for b := range c.sectionPending {
		if b.GlobalID < 0 {
			delete(c.sectionPending, b)
		}
	}
}

// forgetWarp drops all per-warp state once a warp retires (its final
// region was verified before the exit issued).
func (c *Controller) forgetWarp(w *gpu.Warp) {
	delete(c.rpt, w)
	delete(c.cleared, w)
	if b := c.ckpt[w]; b != nil {
		delete(c.ckpt, w)
		c.ckptFree = append(c.ckptFree, b)
	}
}

// recordCkpt records a checkpoint store of reg per active lane; the
// values commit into the restore set when the containing region
// verifies.
func (c *Controller) recordCkpt(w *gpu.Warp, reg isa.Reg) {
	b := c.ckpt[w]
	if b == nil {
		b = c.newCkptBuf()
		c.ckpt[w] = b
	}
	k := len(c.ckptRegs)
	slot := c.ckptSlot[reg]
	mask := w.ActiveMask()
	for lane := 0; lane < len(w.Regs); lane++ {
		if mask&(1<<lane) == 0 || w.Regs[lane] == nil {
			continue
		}
		b.pend[lane*k+slot] = w.Regs[lane][reg]
		b.pendSet[slot] |= 1 << lane
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

// restoreCkpt drops w's pending checkpoints and restores its region
// inputs from the committed ones, in (lane, register) order.
func (c *Controller) restoreCkpt(w *gpu.Warp) {
	b := c.ckpt[w]
	if b == nil {
		return
	}
	clear(b.pendSet)
	k := len(c.ckptRegs)
	for lane, regs := range w.Regs {
		if regs == nil {
			continue
		}
		for slot, r := range c.ckptRegs {
			if b.commSet[slot]&(1<<lane) != 0 {
				regs[r] = b.comm[lane*k+slot]
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
			c.Stats.Flushed += int64(len(q.Flush()))
		}
	}
	// Revert unverified atomics, newest first.
	for i := len(c.undo) - 1; i >= 0; i-- {
		e := c.undo[i]
		if e.space == isa.SpaceShared {
			e.shared[e.addr/4] = e.old
		} else {
			_ = e.mem.Store(e.addr, e.old)
		}
		c.Stats.UndoneAtomics++
	}
	c.undo = c.undo[:0]

	for _, sm := range d.SMs {
		for _, w := range sm.Warps {
			if w == nil || w.Finished {
				continue
			}
			snap, ok := c.rpt[w]
			if !ok {
				snap = snapshotOf(w)
			}
			w.Restore(snap.PC, snap.Stack, snap.BarGen, d.Cyc)
			c.cleared[w] = snap.PC
			c.restoreCkpt(w)
		}
		// Re-synchronize replayed barriers.
		for _, b := range sm.Blocks {
			if b.GlobalID >= 0 {
				sm.ResetBarrierGen(b)
			}
		}
	}
	for b := range c.sectionPending {
		delete(c.sectionPending, b)
	}
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
