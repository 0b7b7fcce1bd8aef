package gpu

import (
	"math/bits"

	"flame/internal/isa"
)

// execute issues and architecturally executes warp w's next instruction.
func (sm *SM) execute(w *Warp, cycle int64) error {
	d := sm.dev
	prog := d.launch.Prog
	pc := w.PC()
	in := &prog.Insts[pc]
	c := &d.kern.consts[pc]

	w.invalidateDeps()
	d.Stats.Issued++
	switch in.Origin {
	case isa.OrigDup:
		d.Stats.ReplicaInsts++
	case isa.OrigCheckpoint:
		d.Stats.CheckpointStores++
	default:
		d.Stats.SourceInsts++
	}
	if in.Boundary {
		d.Stats.BoundaryCrossings++
	}

	mask := w.ActiveMask()
	// Lanes enabled by the guard predicate.
	exec := mask
	if g := in.Guard; g.Valid() {
		if g.Neg {
			exec = mask &^ w.preds[g.Pred]
		} else {
			exec = mask & w.preds[g.Pred]
		}
	}
	w.lastExec = exec

	advance := true
	switch in.Op {
	case isa.OpNop, isa.OpMembar:
		// Timing-only.

	case isa.OpExit:
		w.exitLanes(exec)
		// Guard-false lanes fall through; a finished warp skips the PC
		// advance below but still reaches OnExecuted.

	case isa.OpBra:
		advance = false
		sm.branch(w, in, pc, exec, mask)

	case isa.OpBar:
		sm.arriveBarrier(w)

	case isa.OpSetp:
		sm.setp(w, in, c, exec)
		w.predReady[in.PDst] = cycle + int64(d.Cfg.ALULat)

	case isa.OpLd:
		if err := sm.load(w, in, c, exec, cycle); err != nil {
			return err
		}

	case isa.OpSt:
		if err := sm.store(w, in, c, exec, cycle); err != nil {
			return err
		}

	case isa.OpAtom:
		if err := sm.atomic(w, in, c, exec, cycle); err != nil {
			return err
		}

	default:
		// ALU / SFU value producers.
		lat := int64(d.Cfg.ALULat)
		if in.Op.IsSFU() {
			lat = int64(d.Cfg.SFULat)
			sm.sfuBusyUntil = cycle + 2
		}
		sm.alu(w, in, c, exec)
		if in.Dst != isa.NoReg {
			w.regReady[in.Dst] = cycle + lat
		}
	}

	if advance && !w.Finished {
		w.setPC(pc + 1)
	}
	w.popReconverged()
	d.hooks.onExecuted(d, sm, w, pc)
	return nil
}

// setp evaluates a comparison on every lane and writes its exec lanes
// into the destination predicate's lane mask.
func (sm *SM) setp(w *Warp, in *isa.Inst, c *operandRows, exec uint32) {
	a := sm.srcRow(w, in, c, 0)
	b := sm.srcRow(w, in, c, 1)
	p := &w.preds[in.PDst]
	*p = *p&^exec | isa.EvalCmpRow(in.Cmp, a, b)&exec
}

// alu computes an ALU/SFU or selp instruction on whole rows, with one
// opcode dispatch, and writes the result to the exec lanes of the
// destination register only.
func (sm *SM) alu(w *Warp, in *isa.Inst, c *operandRows, exec uint32) {
	a := sm.srcRow(w, in, c, 0)
	b := sm.srcRow(w, in, c, 1)
	dst := w.row(in.Dst)
	// Lanes without a thread hold no register, so an exec mask
	// covering every thread writes the destination row in place;
	// otherwise the row is computed aside and merged lane by lane.
	out := dst
	if exec|^w.regLanes != ^uint32(0) {
		out = &sm.result
	}
	if in.Op == isa.OpSelp {
		p := w.preds[in.Src[2].Pred]
		for i := range out {
			if p&(1<<i) != 0 {
				out[i] = a[i]
			} else {
				out[i] = b[i]
			}
		}
	} else {
		isa.EvalALURow(in.Op, out, a, b, sm.srcRow(w, in, c, 2))
	}
	if out != dst {
		for m := exec; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			dst[i] = out[i]
		}
	}
}

// branch implements predicated branching with IPDOM reconvergence.
func (sm *SM) branch(w *Warp, in *isa.Inst, pc int, taken, mask uint32) {
	notTaken := mask &^ taken
	switch {
	case taken == 0:
		w.setPC(pc + 1)
	case notTaken == 0:
		w.setPC(in.Target)
	default:
		rpc := sm.dev.kern.info.Reconv[pc]
		// The current top becomes the reconvergence entry.
		w.setPC(rpc)
		w.Stack = append(w.Stack,
			SIMTEntry{PC: pc + 1, RPC: rpc, Mask: notTaken},
			SIMTEntry{PC: in.Target, RPC: rpc, Mask: taken},
		)
	}
}

// srcRow returns source operand i's value in every lane: the
// instruction's constant row c[i] (see compiledKernel.consts), the
// register's own row, or operand row sm.rows[i] filled with a special
// register.
func (sm *SM) srcRow(w *Warp, in *isa.Inst, c *operandRows, i int) *isa.Row {
	if r := c[i]; r != nil {
		return r
	}
	if o := &in.Src[i]; o.Kind == isa.OperReg {
		return w.row(o.Reg)
	}
	return sm.fillRow(w, in.Src[i].Spec, i)
}

// fillRow fills operand row i with special register s.
func (sm *SM) fillRow(w *Warp, s isa.Special, i int) *isa.Row {
	buf := &sm.rows[i]
	for lane := range buf {
		buf[lane] = sm.special(w, lane, s)
	}
	return buf
}

// special evaluates a special register for one lane.
func (sm *SM) special(w *Warp, lane int, s isa.Special) uint32 {
	l := sm.dev.launch
	t := w.laneThread[lane]
	if t < 0 {
		t = 0
	}
	bx, by := max1(l.Block.X), max1(l.Block.Y)
	gx, gy := max1(l.Grid.X), max1(l.Grid.Y)
	gb := w.GlobalBlock
	switch s {
	case isa.SpecTidX:
		return uint32(t % bx)
	case isa.SpecTidY:
		return uint32((t / bx) % by)
	case isa.SpecTidZ:
		return uint32(t / (bx * by))
	case isa.SpecNTidX:
		return uint32(bx)
	case isa.SpecNTidY:
		return uint32(by)
	case isa.SpecNTidZ:
		return uint32(max1(l.Block.Z))
	case isa.SpecCtaIDX:
		return uint32(gb % gx)
	case isa.SpecCtaIDY:
		return uint32((gb / gx) % gy)
	case isa.SpecCtaIDZ:
		return uint32(gb / (gx * gy))
	case isa.SpecNCtaIDX:
		return uint32(gx)
	case isa.SpecNCtaIDY:
		return uint32(gy)
	case isa.SpecNCtaIDZ:
		return uint32(max1(l.Grid.Z))
	case isa.SpecLaneID:
		return uint32(lane)
	case isa.SpecWarpID:
		return uint32(w.WarpInBlock)
	}
	return 0
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// LaneAddress computes the effective address of the memory instruction
// at pc for one lane (used by fault injection to corrupt store data in
// place).
func (sm *SM) LaneAddress(w *Warp, lane, pc int) uint32 {
	in := &sm.dev.launch.Prog.Insts[pc]
	return sm.srcRow(w, in, &sm.dev.kern.consts[pc], 0)[lane] + uint32(in.Off)
}

// Memory instructions compute their address and data rows once, then
// access memory lane by lane in ascending lane order, so the first
// faulting lane (and its MemFault) is the same as for a scalar loop.
// Loads and stores pick the space's word array once and check each
// lane's bounds and alignment inline, with the same MemFault as
// read/write; local memory, one span per lane, goes through read/write.

// spaceWords returns the word array a load (store false) or store of
// the space accesses directly, or nil where each lane goes through
// read/write: local memory and, for a store, the read-only param space.
func (sm *SM) spaceWords(w *Warp, space isa.Space, store bool) []uint32 {
	switch space {
	case isa.SpaceGlobal:
		return sm.dev.Mem.words
	case isa.SpaceShared:
		return sm.BlockOf(w).Shared
	case isa.SpaceParam:
		if !store {
			return sm.dev.launch.Params
		}
	}
	return nil
}

// load executes ld.<space> for all enabled lanes and models its latency.
func (sm *SM) load(w *Warp, in *isa.Inst, c *operandRows, exec uint32, cycle int64) error {
	var addrs [isa.Lanes]uint32
	base := sm.srcRow(w, in, c, 0)
	dst := w.row(in.Dst)
	off := uint32(in.Off)
	words := sm.spaceWords(w, in.Space, false)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a := base[lane] + off
		addrs[lane] = a
		switch {
		case words == nil:
			v, err := sm.read(w, lane, in.Space, a)
			if err != nil {
				return err
			}
			dst[lane] = v
		case a%4 != 0 || int(a/4) >= len(words):
			return &MemFault{Space: in.Space, Addr: a, Op: "load"}
		default:
			dst[lane] = words[a/4]
		}
	}
	lat := sm.memLatency(in.Space, &addrs, exec, cycle, false)
	w.regReady[in.Dst] = cycle + lat
	return nil
}

// store executes st.<space>; stores complete without blocking the warp.
// Global stores mark their page dirty, as GlobalMem.Store does.
func (sm *SM) store(w *Warp, in *isa.Inst, c *operandRows, exec uint32, cycle int64) error {
	var addrs [isa.Lanes]uint32
	base := sm.srcRow(w, in, c, 0)
	data := sm.srcRow(w, in, c, 1)
	off := uint32(in.Off)
	words := sm.spaceWords(w, in.Space, true)
	global := in.Space == isa.SpaceGlobal
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a := base[lane] + off
		addrs[lane] = a
		switch {
		case words == nil:
			if err := sm.write(w, lane, in.Space, a, data[lane]); err != nil {
				return err
			}
		case a%4 != 0 || int(a/4) >= len(words):
			return &MemFault{Space: in.Space, Addr: a, Op: "store"}
		default:
			words[a/4] = data[lane]
			if global {
				sm.dev.Mem.markDirty(int(a / 4))
			}
		}
	}
	sm.memLatency(in.Space, &addrs, exec, cycle, true)
	return nil
}

// atomic executes atom.<space>.<op>: lanes are serialized in lane order,
// each returning the pre-update value.
func (sm *SM) atomic(w *Warp, in *isa.Inst, c *operandRows, exec uint32, cycle int64) error {
	d := sm.dev
	lanes := bits.OnesCount32(exec)
	base := sm.srcRow(w, in, c, 0)
	operand := sm.srcRow(w, in, c, 1)
	dst := w.row(in.Dst)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a := base[lane] + uint32(in.Off)
		old, err := sm.read(w, lane, in.Space, a)
		if err != nil {
			return err
		}
		d.hooks.onAtomic(d, sm, w, in.Space, a, old, lane)
		nv, ret := isa.EvalAtom(in.AOp, old, operand[lane])
		if err := sm.write(w, lane, in.Space, a, nv); err != nil {
			return err
		}
		dst[lane] = ret
		d.Stats.Atomics++
	}
	lat := int64(d.Cfg.L2Lat)
	if in.Space == isa.SpaceShared {
		lat = int64(d.Cfg.SharedLat)
	}
	lat += 2 * int64(lanes)
	sm.lsuBusyUntil = cycle + int64(lanes)
	w.regReady[in.Dst] = cycle + lat
	return nil
}

// read fetches one word from the lane's view of an address space.
func (sm *SM) read(w *Warp, lane int, space isa.Space, addr uint32) (uint32, error) {
	switch space {
	case isa.SpaceGlobal:
		return sm.dev.Mem.Load(addr)
	case isa.SpaceShared:
		sh := sm.BlockOf(w).Shared
		if addr%4 != 0 || int(addr/4) >= len(sh) {
			return 0, &MemFault{Space: space, Addr: addr, Op: "load"}
		}
		return sh[addr/4], nil
	case isa.SpaceLocal:
		lm := w.local(lane)
		if addr%4 != 0 || int(addr/4) >= len(lm) {
			return 0, &MemFault{Space: space, Addr: addr, Op: "load"}
		}
		return lm[addr/4], nil
	case isa.SpaceParam:
		ps := sm.dev.launch.Params
		if addr%4 != 0 || int(addr/4) >= len(ps) {
			return 0, &MemFault{Space: space, Addr: addr, Op: "load"}
		}
		return ps[addr/4], nil
	}
	return 0, &MemFault{Space: space, Addr: addr, Op: "load"}
}

// write stores one word into the lane's view of an address space.
func (sm *SM) write(w *Warp, lane int, space isa.Space, addr, v uint32) error {
	switch space {
	case isa.SpaceGlobal:
		return sm.dev.Mem.Store(addr, v)
	case isa.SpaceShared:
		sh := sm.BlockOf(w).Shared
		if addr%4 != 0 || int(addr/4) >= len(sh) {
			return &MemFault{Space: space, Addr: addr, Op: "store"}
		}
		sh[addr/4] = v
		return nil
	case isa.SpaceLocal:
		lm := w.local(lane)
		if addr%4 != 0 || int(addr/4) >= len(lm) {
			return &MemFault{Space: space, Addr: addr, Op: "store"}
		}
		lm[addr/4] = v
		return nil
	}
	return &MemFault{Space: space, Addr: addr, Op: "store"}
}

// memLatency models coalescing, caches, and shared-memory banking for
// one warp-level memory operation and returns its latency.
func (sm *SM) memLatency(space isa.Space, addrs *[isa.Lanes]uint32, exec uint32, cycle int64, isStore bool) int64 {
	d := sm.dev
	cfg := &d.Cfg
	switch space {
	case isa.SpaceShared:
		// Bank conflicts: count distinct addresses per bank. Distinct
		// addresses are found through a 64-slot open-addressing set,
		// O(lanes) instead of comparing every pair of lanes.
		var bankCount [64]int8
		var used uint64 // occupied slots of sm.bankKeys
		degree := int8(1)
		for m := exec; m != 0; m &= m - 1 {
			a := addrs[bits.TrailingZeros32(m)]
			h := a * 0x9E3779B1 >> 26
			for used&(1<<h) != 0 && sm.bankKeys[h] != a {
				h = (h + 1) & 63
			}
			if used&(1<<h) != 0 {
				continue // another lane already counted this address
			}
			used |= 1 << h
			sm.bankKeys[h] = a
			b := (a / 4) % uint32(cfg.SharedBanks)
			bankCount[b]++
			if bankCount[b] > degree {
				degree = bankCount[b]
			}
		}
		if degree > 1 {
			d.Stats.SharedConflicts += int64(degree - 1)
		}
		sm.lsuBusyUntil = cycle + int64(degree)
		return int64(cfg.SharedLat) + 2*int64(degree-1)

	case isa.SpaceGlobal:
		// Coalesce into cache-line transactions.
		lines := sm.memScratch[:0]
		for m := exec; m != 0; m &= m - 1 {
			ln := addrs[bits.TrailingZeros32(m)] / uint32(cfg.LineBytes)
			dup := false
			for _, s := range lines {
				if s == ln {
					dup = true
					break
				}
			}
			if !dup {
				lines = append(lines, ln)
			}
		}
		d.Stats.GlobalTransactions += int64(len(lines))
		var worst int64
		for _, ln := range lines {
			a := ln * uint32(cfg.LineBytes)
			var lat int64
			if sm.l1.access(a) {
				d.Stats.L1Hits++
				lat = int64(cfg.L1Lat)
			} else {
				d.Stats.L1Misses++
				// Consume this SM's L2 bandwidth share.
				start := cycle
				if sm.l2Free > start {
					start = sm.l2Free
				}
				sm.l2Free = start + int64(cfg.L2CyclesPerLine)
				if d.l2.access(a) {
					d.Stats.L2Hits++
					lat = start - cycle + int64(cfg.L2Lat)
				} else {
					d.Stats.L2Misses++
					// Consume DRAM bandwidth share; queueing delay adds
					// to latency, which is how bandwidth saturation
					// manifests.
					dstart := start
					if sm.dramFree > dstart {
						dstart = sm.dramFree
					}
					sm.dramFree = dstart + int64(cfg.DRAMCyclesPerLine)
					lat = dstart - cycle + int64(cfg.DRAMLat)
				}
				if !isStore {
					sm.mshrPush(cycle + lat)
				}
			}
			if lat > worst {
				worst = lat
			}
		}
		n := int64(len(lines))
		if n == 0 {
			n = 1
		}
		sm.lsuBusyUntil = cycle + n
		if isStore {
			// Write-through, fire and forget.
			return int64(cfg.L1Lat)
		}
		return worst + 2*(n-1)

	case isa.SpaceLocal, isa.SpaceParam:
		sm.lsuBusyUntil = cycle + 1
		if space == isa.SpaceParam {
			return int64(cfg.SharedLat)
		}
		// Local memory behaves like cached global (per-thread, coalesced).
		return int64(cfg.L1Lat)
	}
	return int64(cfg.ALULat)
}
