package gpu

import (
	"math"
	"math/bits"

	"flame/internal/isa"
)

// BlockState is a thread block resident on an SM.
type BlockState struct {
	// Slot is the SM-local block slot index.
	Slot int
	// GlobalID is the launch-wide block index, or -1 if the slot is free.
	GlobalID int
	// Shared is the block's shared-memory scratchpad.
	Shared []uint32
	// BarGen counts barrier releases in this block.
	BarGen int
	// WarpIdx lists the SM warp indices belonging to this block.
	WarpIdx   []int
	liveWarps int
}

// SM is one streaming multiprocessor.
type SM struct {
	ID     int
	dev    *Device
	Warps  []*Warp
	Blocks []*BlockState
	scheds []scheduler
	l1     *cacheModel

	lsuBusyUntil int64
	sfuBusyUntil int64
	// dramFree / l2Free model this SM's share of DRAM and L2 bandwidth:
	// the cycle its next line transaction can start service.
	dramFree int64
	l2Free   int64
	// mshrRelease holds completion cycles of outstanding L1 misses as a
	// min-heap on release cycle. Entries at or before the current cycle
	// are drained once per cycle (step), so availability probes are
	// O(1) reads instead of a compacting scan per ready-check.
	mshrRelease []int64

	// warpPool / blockPool recycle retired warp and block state (and the
	// register-file backing inside them) across placeBlock calls.
	warpPool  []*Warp
	blockPool []*BlockState
	// memScratch is memLatency's line-coalescing buffer; at most one
	// entry per lane, so the capacity is final.
	memScratch []uint32
	// rows are execute's operand rows for immediates and special
	// registers (one per source operand). result is the result row
	// under a partial exec mask.
	rows   [3]isa.Row
	result isa.Row
	// bankKeys is memLatency's open-addressing set of distinct shared
	// addresses; an occupancy mask says which slots are valid, so it is
	// never cleared.
	bankKeys [64]uint32

	// The issue scan works on bitmasks over warp slots (bit i is
	// Warps[i]; Config.Validate caps MaxWarpsPerSM at 64). live holds
	// resident unfinished warps; suspended and atBarrier, subsets of
	// live, are the only record of those warps' suspension and barrier
	// parking (Warp.Suspended, Warp.AtBarrier).
	live, suspended, atBarrier uint64
	// part[si] holds the slots scheduler si owns (slot i % schedulers).
	part []uint64
	// gate[i] memoizes slot i's issue gate for its current instruction:
	// the cycle its scoreboard dependencies clear (the sbWait and class
	// masks carry its other facts). It is current for the slots in
	// valid. The scoreboard and PC only change when the warp executes
	// or its pipeline resets, and both invalidate the gate, so a gate is
	// refilled about once per issue.
	gate  []int64
	valid uint64
	// sbWait holds the valid slots whose scoreboard bound lies after the
	// current cycle: refills add slots, and once the cycle reaches
	// sbNext, a lower bound on the entries' bounds, step drops those
	// whose bound it has reached.
	sbWait uint64
	sbNext int64
	// lsu, mshr, sfu and hook classify the valid slots' instructions:
	// memory ops, which wait for the LSU; global ones among them, which
	// also need an MSHR; SFU ops; and those BeforeIssue acts on.
	lsu, mshr, sfu, hook uint64
}

// Hazard classes of an instruction (issueDesc.hz).
const (
	hzLSU  uint8 = 1 << iota // memory op: waits for the LSU
	hzMSHR                   // global memory op: also needs an MSHR
	hzSFU                    // SFU op: waits for the SFU
)

// refillGate recomputes slot wi's gate from its instruction's
// descriptor and sets the slot's bits in the valid, sbWait and class
// masks. The scoreboard bound is the latest pending write among the
// registers and predicates the instruction reads or writes; it may be
// in the past. Every caller runs at d.Cyc, so the slot waits on the
// scoreboard iff the bound lies after it.
func (sm *SM) refillGate(wi int) {
	w := sm.Warps[wi]
	dc := &sm.dev.kern.desc[w.PC()]
	var t int64
	for _, r := range dc.regs[:dc.nregs] {
		t = max(t, w.regReady[r])
	}
	for _, p := range dc.preds[:dc.npreds] {
		t = max(t, w.predReady[p])
	}
	sm.gate[wi] = t
	sm.valid |= 1 << uint(wi)
	if t > sm.dev.Cyc {
		sm.sbWait |= 1 << uint(wi)
		sm.sbNext = min(sm.sbNext, t)
	}
	sm.lsu = setBit(sm.lsu, wi, dc.hz&hzLSU != 0)
	sm.mshr = setBit(sm.mshr, wi, dc.hz&hzMSHR != 0)
	sm.sfu = setBit(sm.sfu, wi, dc.hz&hzSFU != 0)
	sm.hook = setBit(sm.hook, wi, dc.hook)
}

// invalidate discards slot wi's gate (call after any scoreboard write
// or control-flow change of its warp, or when a new warp takes the
// slot).
func (sm *SM) invalidate(wi int) {
	sm.valid &^= 1 << uint(wi)
	sm.sbWait &^= 1 << uint(wi)
}

// releaseScoreboard drops from sbWait the slots whose scoreboard bound
// the cycle has reached and recomputes sbNext; step calls it once the
// cycle reaches sbNext.
func (sm *SM) releaseScoreboard(cycle int64) {
	next := int64(math.MaxInt64)
	for m := sm.sbWait; m != 0; m &= m - 1 {
		wi := bits.TrailingZeros64(m)
		if at := sm.gate[wi]; at <= cycle {
			sm.sbWait &^= 1 << uint(wi)
		} else {
			next = min(next, at)
		}
	}
	sm.sbNext = next
}

// structBlocked returns the valid slots a structural hazard blocks at
// the cycle: memory ops while the LSU is busy, otherwise global memory
// ops while the MSHR file is full, and SFU ops while the SFU is busy.
func (sm *SM) structBlocked(cycle int64) uint64 {
	var m uint64
	if sm.lsuBusyUntil > cycle {
		m = sm.lsu
	} else if !sm.mshrAvailable() {
		m = sm.mshr
	}
	if sm.sfuBusyUntil > cycle {
		m |= sm.sfu
	}
	return m
}

// mshrAvailable reports whether an L1 miss slot is free. mshrDrain has
// already evicted entries released at or before the current cycle, and
// in-cycle pushes always release in the future, so the heap size is
// exactly the outstanding-miss count.
func (sm *SM) mshrAvailable() bool {
	limit := sm.dev.Cfg.MSHRs
	return limit <= 0 || len(sm.mshrRelease) < limit
}

// mshrPush records an outstanding L1 miss completing at the cycle.
func (sm *SM) mshrPush(release int64) {
	h := append(sm.mshrRelease, release)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sm.mshrRelease = h
}

// mshrDrain pops every miss released at or before the cycle (called
// once per cycle at the top of step).
func (sm *SM) mshrDrain(cycle int64) {
	h := sm.mshrRelease
	for len(h) > 0 && h[0] <= cycle {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	sm.mshrRelease = h
}

func newSM(id int, d *Device) *SM {
	cfg := &d.Cfg
	sm := &SM{
		ID: id, dev: d, l1: newCache(cfg.L1Sets, cfg.L1Ways, cfg.LineBytes),
		memScratch: make([]uint32, 0, cfg.WarpSize),
		gate:       make([]int64, cfg.MaxWarpsPerSM),
		sbNext:     math.MaxInt64,
		part:       make([]uint64, cfg.SchedulersPerSM),
	}
	for i := 0; i < cfg.SchedulersPerSM; i++ {
		sm.scheds = append(sm.scheds, newScheduler(cfg.Scheduler, cfg.TwoLevelGroup))
	}
	for i := 0; i < cfg.MaxWarpsPerSM; i++ {
		sm.part[i%cfg.SchedulersPerSM] |= 1 << uint(i)
	}
	return sm
}

// recycle returns the SM's warp and block objects, with their
// register-file backing, to its pools and drops every memoized issue
// gate: the slots stay empty until dispatch or CopyFrom fills them. The
// pools then keep no more objects than keep holds (Device.poolFor).
func (sm *SM) recycle(keep poolSize) {
	for _, w := range sm.Warps {
		if w != nil {
			sm.warpPool = append(sm.warpPool, w)
		}
	}
	sm.blockPool = append(sm.blockPool, sm.Blocks...)
	sm.Warps = sm.Warps[:0]
	sm.Blocks = sm.Blocks[:0]
	sm.valid, sm.sbWait, sm.sbNext = 0, 0, math.MaxInt64
	sm.warpPool = trimPool(sm.warpPool, keep.warps)
	sm.blockPool = trimPool(sm.blockPool, keep.blocks)
}

// trimPool drops the pooled objects past the first n.
func trimPool[T any](pool []*T, n int) []*T {
	if len(pool) > n {
		clear(pool[n:])
		pool = pool[:n]
	}
	return pool
}

// BlockOf returns the block state a warp belongs to.
func (sm *SM) BlockOf(w *Warp) *BlockState { return sm.Blocks[w.BlockSlot] }

// dispatch places grid blocks into free slots until occupancy is reached.
func (sm *SM) dispatch() {
	d := sm.dev
	for d.nextBlock < d.launch.Grid.Count() {
		slot := -1
		for i, b := range sm.Blocks {
			if b.GlobalID == -1 {
				slot = i
				break
			}
		}
		if slot == -1 {
			if len(sm.Blocks) < d.blocksPerSM {
				b := sm.getBlock()
				b.Slot, b.GlobalID = len(sm.Blocks), -1
				sm.Blocks = append(sm.Blocks, b)
				slot = len(sm.Blocks) - 1
			} else {
				return
			}
		}
		sm.placeBlock(sm.Blocks[slot], d.nextBlock)
		d.nextBlock++
	}
}

// placeBlock initializes warps for global block gb in the given slot.
func (sm *SM) placeBlock(b *BlockState, gb int) {
	d := sm.dev
	l := d.launch
	threads := l.Block.Count()
	warpsPerBlock := (threads + d.Cfg.WarpSize - 1) / d.Cfg.WarpSize

	b.GlobalID = gb
	b.BarGen = 0
	if n := l.Prog.SharedBytes / 4; len(b.Shared) != n {
		b.Shared = make([]uint32, n)
	} else {
		for i := range b.Shared {
			b.Shared[i] = 0
		}
	}
	b.WarpIdx = b.WarpIdx[:0]
	b.liveWarps = warpsPerBlock

	nregs := l.Prog.NumRegs
	localWords := (l.Prog.LocalBytes + 3) / 4
	warpSize := d.Cfg.WarpSize
	for wi := 0; wi < warpsPerBlock; wi++ {
		w := sm.getWarp()
		w.ID = len(sm.Warps)
		w.BlockSlot = b.Slot
		w.GlobalBlock = gb
		w.WarpInBlock = wi
		w.Age = d.ageSeq
		d.ageSeq++
		// Reuse a retired warp ID slot if available.
		reused := false
		for i, old := range sm.Warps {
			if old == nil {
				w.ID = i
				sm.Warps[i] = w
				reused = true
				break
			}
		}
		if !reused {
			sm.Warps = append(sm.Warps, w)
		}
		b.WarpIdx = append(b.WarpIdx, w.ID)

		// The register file is one zeroed row per register, local
		// memory one zeroed span per lane.
		w.regs = resize(w.regs, isa.Lanes*nregs)
		w.localData = resize(w.localData, warpSize*localWords)
		w.localWords = localWords
		w.regReady = resize(w.regReady, nregs)

		var mask uint32
		for lane := range w.laneThread {
			t := wi*warpSize + lane
			if lane < warpSize && t < threads {
				mask |= 1 << lane
				w.laneThread[lane] = t
			} else {
				w.laneThread[lane] = -1
			}
		}
		w.AliveMask = mask
		w.regLanes = mask
		w.Stack = append(w.Stack[:0], SIMTEntry{PC: 0, RPC: len(l.Prog.Insts), Mask: mask})
		w.sm = sm
		bit := uint64(1) << uint(w.ID)
		sm.live |= bit
		sm.invalidate(w.ID)
		d.hooks.onWarpDispatch(d, sm, w)
	}
}

// getWarp takes a warp from the retirement pool (or allocates one) and
// resets every scalar field to launch state; placeBlock overwrites the
// identity fields and slices.
func (sm *SM) getWarp() *Warp {
	var w *Warp
	if n := len(sm.warpPool); n > 0 {
		w, sm.warpPool = sm.warpPool[n-1], sm.warpPool[:n-1]
	} else {
		w = &Warp{}
	}
	w.AliveMask = 0
	w.BarGen = 0
	w.Finished = false
	w.lastExec = 0
	w.LastIssue = 0
	w.preds = [isa.NumPredRegs]uint32{}
	w.predReady = [isa.NumPredRegs]int64{}
	return w
}

// getBlock takes a block from the retirement pool or allocates one.
func (sm *SM) getBlock() *BlockState {
	if n := len(sm.blockPool); n > 0 {
		b := sm.blockPool[n-1]
		sm.blockPool = sm.blockPool[:n-1]
		b.BarGen = 0
		b.WarpIdx = b.WarpIdx[:0]
		b.liveWarps = 0
		return b
	}
	return &BlockState{}
}

// resize returns s resized to n zeroed elements, zero being the launch
// value. It reuses s's storage unless that is too small or more than
// twice the size, so a pooled warp does not keep the register file of
// a much larger launch.
func resize[T uint32 | int64](s []T, n int) []T {
	if cap(s) < n || cap(s) > 2*n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// retireWarp handles a warp that just finished.
func (sm *SM) retireWarp(w *Warp) {
	bit := uint64(1) << uint(w.ID)
	sm.live &^= bit
	sm.suspended &^= bit
	sm.atBarrier &^= bit
	b := sm.BlockOf(w)
	b.liveWarps--
	sm.checkBarrierRelease(b)
	if b.liveWarps == 0 {
		sm.dev.Stats.BlocksRun++
		sm.dev.blocksDone++
		b.GlobalID = -1
		for _, wi := range b.WarpIdx {
			// Recycle into the pool; the dispatch below is the first to
			// reuse the warps and slots.
			sm.warpPool = append(sm.warpPool, sm.Warps[wi])
			sm.Warps[wi] = nil
		}
		b.WarpIdx = b.WarpIdx[:0]
		sm.dispatch()
	}
}

// arriveBarrier implements bar.sync with generation counting: a warp
// re-executing a barrier whose generation already released (recovery
// replay) passes through immediately.
func (sm *SM) arriveBarrier(w *Warp) {
	b := sm.BlockOf(w)
	if w.BarGen < b.BarGen {
		w.BarGen++
		return
	}
	w.setAtBarrier(true)
	sm.checkBarrierRelease(b)
}

// checkBarrierRelease releases the block barrier when every live warp of
// the current generation has arrived.
func (sm *SM) checkBarrierRelease(b *BlockState) {
	waiting := 0
	for _, wi := range b.WarpIdx {
		w := sm.Warps[wi]
		if w == nil || w.Finished {
			continue
		}
		if w.BarGen > b.BarGen || (w.BarGen == b.BarGen && w.AtBarrier()) {
			waiting++
		} else {
			return // someone has not arrived yet
		}
	}
	if waiting == 0 {
		return
	}
	b.BarGen++
	for _, wi := range b.WarpIdx {
		w := sm.Warps[wi]
		if w == nil || w.Finished {
			continue
		}
		if w.AtBarrier() && w.BarGen == b.BarGen-1 {
			w.setAtBarrier(false)
			w.BarGen = b.BarGen
		}
	}
}

// ResetBarrierGen rewinds the block barrier generation (collective
// section recovery): the block's released-generation counter is set to
// the minimum of its warps' generations so replayed warps re-synchronize.
func (sm *SM) ResetBarrierGen(b *BlockState) {
	min := -1
	for _, wi := range b.WarpIdx {
		w := sm.Warps[wi]
		if w == nil || w.Finished {
			continue
		}
		if min == -1 || w.BarGen < min {
			min = w.BarGen
		}
	}
	if min >= 0 {
		b.BarGen = min
	}
}

// step runs one cycle of this SM. It returns the first simulation error.
//
// Each scheduler classifies its partition with mask algebra over warp
// slots: suspended and barrier-parked warps are booked by popcount, the
// gates of the remaining candidates are refilled where invalidated
// (about one slot per issue), and the scoreboard wait set and the
// structural-hazard mask split off the blocked ones. The only slots
// visited one by one are those refills and the hazard-clear slots
// whose instruction the hooks declared (Hooks.IssueAt): BeforeIssue
// runs for those in ascending slot order, so its side effects such as
// RBQ pushes happen in slot order.
func (sm *SM) step(cycle int64) error {
	sm.mshrDrain(cycle)
	if cycle >= sm.sbNext {
		sm.releaseScoreboard(cycle)
	}
	if sm.live == 0 {
		sm.dispatch()
		if sm.live == 0 {
			sm.creditDrained(cycle)
			return nil
		}
	}
	d := sm.dev
	sink := d.slots
	for si, sched := range sm.scheds {
		part := sm.live & sm.part[si]
		if part == 0 {
			if sink != nil {
				sink.CreditSlot(sm.ID, si, -1, SlotEmpty, cycle)
			}
			continue
		}
		susp := part & sm.suspended
		bar := part & sm.atBarrier &^ susp
		d.Stats.RBQWaitCycles += int64(bits.OnesCount64(susp))
		d.Stats.BarrierWaits += int64(bits.OnesCount64(bar))
		cand := part &^ (susp | bar)
		for m := cand &^ sm.valid; m != 0; m &= m - 1 {
			sm.refillGate(bits.TrailingZeros64(m))
		}
		sb := cand & sm.sbWait
		mem := cand &^ sb & sm.structBlocked(cycle)
		ready := cand &^ (sb | mem)
		var veto uint64
		for m := ready & sm.hook; m != 0; m &= m - 1 {
			wi := bits.TrailingZeros64(m)
			if !d.hooks.BeforeIssue(d, sm, sm.Warps[wi]) {
				veto |= 1 << uint(wi)
			}
		}
		ready &^= veto
		if ready == 0 {
			d.Stats.StallCycles++
			if sink != nil {
				w, r := stallOf(sb, mem, bar, susp|veto)
				sink.CreditSlot(sm.ID, si, w, r, cycle)
			}
			continue
		}
		pick := sched.pick(sm.Warps, ready, cycle)
		if pick < 0 {
			d.Stats.StallCycles++
			if sink != nil {
				// A policy hole (two-level active set saturated by
				// recently-issued stalled warps) with ready warps waiting:
				// charge the blocked warp that clogs the active set, or
				// fall back to the first bypassed ready warp.
				w, r := stallOf(sb, mem, bar, susp|veto)
				if w < 0 {
					w, r = bits.TrailingZeros64(ready), SlotScoreboard
				}
				sink.CreditSlot(sm.ID, si, w, r, cycle)
			}
			continue
		}
		w := sm.Warps[pick]
		w.LastIssue = cycle
		if sink != nil {
			sink.CreditSlot(sm.ID, si, pick, SlotIssued, cycle)
		}
		if err := sm.execute(w, cycle); err != nil {
			return err
		}
		if w.Finished {
			sm.retireWarp(w)
			sched.reset()
		} else {
			// Execution invalidated the gate; refill it while the
			// warp's stack and scoreboard are still in cache.
			sm.refillGate(pick)
		}
	}
	return nil
}

// stallOf attributes a stalled scheduler slot from the partition's
// blocked-warp masks: the warp closest to issuing, i.e. the lowest
// SlotReason, and among those the first in scan order (lowest slot).
// It returns warp -1 when no warp is blocked.
func stallOf(scoreboard, memory, barrier, rbq uint64) (int, SlotReason) {
	for _, c := range [...]struct {
		m uint64
		r SlotReason
	}{{scoreboard, SlotScoreboard}, {memory, SlotMemory}, {barrier, SlotBarrier}, {rbq, SlotRBQ}} {
		if c.m != 0 {
			return bits.TrailingZeros64(c.m), c.r
		}
	}
	return -1, NumSlotReasons
}

// creditDrained credits every scheduler slot of a drained SM (no live
// warps) at the cycle.
func (sm *SM) creditDrained(cycle int64) {
	if sink := sm.dev.slots; sink != nil {
		for si := range sm.scheds {
			sink.CreditSlot(sm.ID, si, -1, SlotDrained, cycle)
		}
	}
}
