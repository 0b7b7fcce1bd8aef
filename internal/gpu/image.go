package gpu

import (
	"fmt"
	"math/bits"
	"slices"

	"flame/internal/isa"
)

// Image is a copy of a paused launch (Start, then Continue up to a
// pause cycle): everything the rest of the launch reads, so that Restore
// on any device of the same configuration, followed by Continue,
// finishes the launch bit for bit as the uninterrupted run would —
// final memory, Stats, and every hook call from the pause cycle on.
// Fault-injection trials start from an image of the golden run paused
// at their first arm cycle instead of re-simulating its fault-free
// prefix. Restore only reads an image; the next capture into it
// (Device.Image) overwrites it.
//
// Memoized issue gates are not part of an image: they are a pure
// function of warp state, and a restored launch may attach hooks that
// declare other BeforeIssue instructions, so Restore drops them.
type Image struct {
	cfg   Config // NoCycleSkip cleared: skipping never changes state
	prog  *isa.Program
	grid  isa.Dim3
	block isa.Dim3

	cyc        int64
	stats      Stats
	nextBlock  int
	blocksDone int
	ageSeq     int64
	l2         cacheImage
	sms        []smImage

	// pages lists the global-memory pages the launch had written (the
	// dirty bitmap, ascending) and data their contents, PageWords words
	// each (the last page may be shorter).
	pages []int
	data  []uint32
}

// smImage is one SM's part of an Image.
type smImage struct {
	// warps mirrors SM.Warps, nil holes included; spare holds warp
	// copies the last capture did not need, for the next to reuse.
	warps  []*Warp
	spare  []*Warp
	blocks []BlockState
	scheds []scheduler
	l1     cacheImage

	lsuBusyUntil, sfuBusyUntil, dramFree, l2Free int64
	mshrRelease                                  []int64
	live, suspended, atBarrier                   uint64
}

// cacheImage is a cache model's tags, LRU ticks and clock, set-major.
type cacheImage struct {
	tags []uint64
	tick []int64
	now  int64
}

// Cycle returns the cycle the image was taken at: the launch resumes
// there.
func (img *Image) Cycle() int64 { return img.cyc }

// imageConfig is the part of a configuration an image depends on.
func imageConfig(c Config) Config {
	c.NoCycleSkip = false
	return c
}

// Image captures the device's current launch, which Start and Continue
// left paused (or complete), into img, reusing its storage, and returns
// it; a nil img captures into a new Image. Global memory is captured as
// the pages written since the launch started from a clean dirty bitmap.
func (d *Device) Image(img *Image) *Image {
	if img == nil {
		img = &Image{}
	}
	l := d.launch
	img.cfg, img.prog, img.grid, img.block = imageConfig(d.Cfg), l.Prog, l.Grid, l.Block
	img.cyc, img.stats, img.nextBlock = d.Cyc, d.Stats, d.nextBlock
	img.blocksDone, img.ageSeq = d.blocksDone, d.ageSeq
	if len(img.sms) != len(d.SMs) {
		img.sms = make([]smImage, len(d.SMs))
	}
	d.l2.image(&img.l2)
	for i, sm := range d.SMs {
		si := &img.sms[i]
		// Reuse the previous capture's warp copies.
		for _, c := range si.warps {
			if c != nil {
				si.spare = append(si.spare, c)
			}
		}
		si.warps = si.warps[:0]
		for _, w := range sm.Warps {
			var c *Warp
			if w != nil {
				if n := len(si.spare); n > 0 {
					c, si.spare = si.spare[n-1], si.spare[:n-1]
				} else {
					c = &Warp{}
				}
				c.copyFrom(w)
				c.sm = nil
			}
			si.warps = append(si.warps, c)
		}
		si.blocks = slices.Grow(si.blocks[:0], len(sm.Blocks))[:len(sm.Blocks)]
		for j, b := range sm.Blocks {
			si.blocks[j].copyFrom(b)
		}
		si.scheds = si.scheds[:0]
		for _, s := range sm.scheds {
			si.scheds = append(si.scheds, s.clone())
		}
		sm.l1.image(&si.l1)
		si.lsuBusyUntil, si.sfuBusyUntil = sm.lsuBusyUntil, sm.sfuBusyUntil
		si.dramFree, si.l2Free = sm.dramFree, sm.l2Free
		si.mshrRelease = append(si.mshrRelease[:0], sm.mshrRelease...)
		si.live, si.suspended, si.atBarrier = sm.live, sm.suspended, sm.atBarrier
	}
	img.pages, img.data = d.Mem.capturePages(img.pages[:0], img.data[:0])
	return img
}

// Restore puts the device in the paused state img holds, with l and
// hooks as the current launch; Continue then finishes the launch. l
// must launch the imaged program with the imaged geometry, and the
// device must have the imaged configuration (NoCycleSkip aside). Global
// memory must hold the contents the imaged launch started from, with a
// clean dirty bitmap (RestoreFrom leaves it so): Restore writes the
// pages the launch had written by the image's cycle and marks them dirty,
// so the bitmap afterwards is the one the uninterrupted launch has.
func (d *Device) Restore(img *Image, l *Launch, hooks *Hooks) error {
	switch {
	case imageConfig(d.Cfg) != img.cfg:
		return fmt.Errorf("gpu: image of a %s launch restored on a %s device with another configuration", img.cfg.Name, d.Cfg.Name)
	case l.Prog != img.prog || l.Grid != img.grid || l.Block != img.block:
		return fmt.Errorf("gpu: image of kernel %q restored with another launch (%q)", img.prog.Name, l.Prog.Name)
	}
	if err := d.attach(l, hooks); err != nil {
		return err
	}
	d.Cyc, d.Stats = img.cyc, img.stats
	d.nextBlock, d.blocksDone, d.ageSeq = img.nextBlock, img.blocksDone, img.ageSeq
	d.l2.load(&img.l2)
	d.restored = d.poolFor(l)
	keep := d.restored.max(d.started)
	for i, sm := range d.SMs {
		sm.restore(&img.sms[i], keep)
	}
	d.resetActive()
	d.Mem.restorePages(img.pages, img.data)
	return nil
}

// restore loads an SM's part of an image, reusing the SM's warp and
// block objects, its pools kept to keep.
func (sm *SM) restore(si *smImage, keep poolSize) {
	sm.recycle(keep)
	for _, src := range si.warps {
		var w *Warp
		if src != nil {
			w = sm.getWarp()
			w.copyFrom(src)
			w.sm = sm
		}
		sm.Warps = append(sm.Warps, w)
	}
	for i := range si.blocks {
		b := sm.getBlock()
		b.copyFrom(&si.blocks[i])
		sm.Blocks = append(sm.Blocks, b)
	}
	for i, s := range si.scheds {
		sm.scheds[i] = s.clone()
	}
	sm.l1.load(&si.l1)
	sm.lsuBusyUntil, sm.sfuBusyUntil = si.lsuBusyUntil, si.sfuBusyUntil
	sm.dramFree, sm.l2Free = si.dramFree, si.l2Free
	sm.mshrRelease = append(sm.mshrRelease[:0], si.mshrRelease...)
	sm.live, sm.suspended, sm.atBarrier = si.live, si.suspended, si.atBarrier
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

// image copies the cache's tags, LRU ticks and clock into ci, reusing
// its storage.
func (c *cacheModel) image(ci *cacheImage) {
	n := c.sets * c.ways
	ci.tags, ci.tick, ci.now = slices.Grow(ci.tags[:0], n), slices.Grow(ci.tick[:0], n), c.now
	for s := range c.tags {
		ci.tags = append(ci.tags, c.tags[s]...)
		ci.tick = append(ci.tick, c.tick[s]...)
	}
}

// load puts an image of a cache of the same geometry into c.
func (c *cacheModel) load(ci *cacheImage) {
	for s := range c.tags {
		copy(c.tags[s], ci.tags[s*c.ways:])
		copy(c.tick[s], ci.tick[s*c.ways:])
	}
	c.now = ci.now
}

// capturePages appends the dirty pages, ascending, and their contents.
func (m *GlobalMem) capturePages(pages []int, data []uint32) ([]int, []uint32) {
	for wi, bm := range m.dirty {
		for ; bm != 0; bm &= bm - 1 {
			p := wi*64 + bits.TrailingZeros64(bm)
			start := p * PageWords
			pages = append(pages, p)
			data = append(data, m.words[start:min(start+PageWords, len(m.words))]...)
		}
	}
	return pages, data
}

// restorePages writes captured pages back and marks them dirty.
func (m *GlobalMem) restorePages(pages []int, data []uint32) {
	for _, p := range pages {
		start := p * PageWords
		n := copy(m.words[start:min(start+PageWords, len(m.words))], data)
		data = data[n:]
		m.dirty[p>>6] |= 1 << uint(p&63)
	}
}
