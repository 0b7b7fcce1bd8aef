package gpu

import (
	"fmt"
	"math/bits"
)

// CopyFrom puts the device in the paused state of src's launch (Start,
// then Continue up to a pause cycle, or to completion), with l and hooks
// as the current launch, so that Continue finishes the launch bit for
// bit as src's would — final memory, Stats, and every hook call from the
// pause cycle on. Fault-injection trials start from a copy of the golden
// run paused at their first arm cycle instead of re-simulating its
// fault-free prefix. The device keeps no reference to src's storage:
// either device runs on without disturbing the other.
//
// l must launch src's program with src's geometry, and the device must
// have src's configuration. Global memory must hold the contents src's
// launch started from, with a clean dirty bitmap (RestoreFrom leaves it
// so): CopyFrom writes the pages dirty in src and marks them dirty, so
// the bitmap afterwards is the one the uninterrupted launch has.
//
// Memoized issue gates are not copied: they are a pure function of warp
// state, and l's hooks may declare other BeforeIssue instructions.
func (d *Device) CopyFrom(src *Device, l *Launch, hooks *Hooks) error {
	sl := src.launch
	switch {
	case src.Cfg != d.Cfg:
		return fmt.Errorf("gpu: %q launch of a %s device copied to a %s device with another configuration", sl.Prog.Name, src.Cfg.Name, d.Cfg.Name)
	case l.Prog != sl.Prog || l.Grid != sl.Grid || l.Block != sl.Block:
		return fmt.Errorf("gpu: launch of kernel %q copied with another launch (%q)", sl.Prog.Name, l.Prog.Name)
	}
	if err := d.attach(l, hooks); err != nil {
		return err
	}
	d.Cyc, d.Stats = src.Cyc, src.Stats
	d.nextBlock, d.blocksDone, d.ageSeq = src.nextBlock, src.blocksDone, src.ageSeq
	d.l2.copyFrom(src.l2)
	d.copied = d.poolFor(l)
	keep := d.copied.max(d.started)
	for i, sm := range d.SMs {
		sm.copyFrom(src.SMs[i], keep)
	}
	d.resetActive()
	d.Mem.copyDirty(src.Mem)
	return nil
}

// copyFrom makes the SM a copy of src, reusing its warp and block
// objects, its pools kept to keep.
func (sm *SM) copyFrom(src *SM, keep poolSize) {
	sm.recycle(keep)
	for _, sw := range src.Warps {
		var w *Warp
		if sw != nil {
			w = sm.getWarp()
			w.copyFrom(sw)
			w.sm = sm
		}
		sm.Warps = append(sm.Warps, w)
	}
	for _, sb := range src.Blocks {
		b := sm.getBlock()
		b.copyFrom(sb)
		sm.Blocks = append(sm.Blocks, b)
	}
	for i, s := range src.scheds {
		sm.scheds[i] = s.clone()
	}
	sm.l1.copyFrom(src.l1)
	sm.lsuBusyUntil, sm.sfuBusyUntil = src.lsuBusyUntil, src.sfuBusyUntil
	sm.dramFree, sm.l2Free = src.dramFree, src.l2Free
	sm.mshrRelease = append(sm.mshrRelease[:0], src.mshrRelease...)
	sm.live, sm.suspended, sm.atBarrier = src.live, src.suspended, src.atBarrier
}

// copyFrom makes w a copy of src, reusing w's slices; the SM link is
// copied as is.
func (w *Warp) copyFrom(src *Warp) {
	regs, ready, local, stack := w.regs, w.regReady, w.localData, w.Stack
	*w = *src
	w.regs = append(regs[:0], src.regs...)
	w.regReady = append(ready[:0], src.regReady...)
	w.localData = append(local[:0], src.localData...)
	w.Stack = append(stack[:0], src.Stack...)
}

// copyFrom makes b a copy of src, reusing b's slices.
func (b *BlockState) copyFrom(src *BlockState) {
	shared, idx := b.Shared, b.WarpIdx
	*b = *src
	b.Shared = append(shared[:0], src.Shared...)
	b.WarpIdx = append(idx[:0], src.WarpIdx...)
}

// copyFrom copies the tags, LRU ticks and clock of a cache of the same
// geometry into c.
func (c *cacheModel) copyFrom(src *cacheModel) {
	for s := range c.tags {
		copy(c.tags[s], src.tags[s])
		copy(c.tick[s], src.tick[s])
	}
	c.now = src.now
}

// copyDirty copies the pages dirty in src, a memory of the same size,
// and marks them dirty.
func (m *GlobalMem) copyDirty(src *GlobalMem) {
	for wi, bm := range src.dirty {
		for ; bm != 0; bm &= bm - 1 {
			start := (wi*64 + bits.TrailingZeros64(bm)) * PageWords
			end := min(start+PageWords, len(m.words))
			copy(m.words[start:end], src.words[start:end])
		}
		m.dirty[wi] |= src.dirty[wi]
	}
}
