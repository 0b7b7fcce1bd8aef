package flame

import (
	"fmt"
	"slices"

	"flame/internal/gpu"
	"flame/internal/isa"
)

// Image is an immutable copy of a controller's state at a paused launch,
// taken together with the device's gpu.Image: the RPT, the cleared
// crossings, the RBQ conveyors, the checkpoint buffers, the atomic undo
// log, the pending section verifications, Stats and the false-positive
// cursor. Warps and blocks are named by position (gpu.WarpRef,
// gpu.BlockRef), not by object, so Restore loads the image onto the
// warps of whichever device restored the gpu.Image.
type Image struct {
	stats   Stats
	nextFP  int
	rbqs    []*rbqImage // nil holes as in Controller.rbqs
	rpt     []warpSnap
	cleared []warpPC
	ckpt    []warpCkpt
	undo    []undoImage
	pending []pendingImage
}

type rbqImage struct {
	entries             []rbqEntryImage
	lastReady, lastPush int64
	depth               int
}

type rbqEntryImage struct {
	w       gpu.WarpRef
	snap    Snapshot
	readyAt int64
}

type warpSnap struct {
	w    gpu.WarpRef
	snap Snapshot
}

type warpPC struct {
	w  gpu.WarpRef
	pc int
}

type warpCkpt struct {
	w   gpu.WarpRef
	buf ckptBuf
}

type undoImage struct {
	w     gpu.WarpRef
	space isa.Space
	blk   gpu.BlockRef // shared-space entries only
	addr  uint32
	old   uint32
}

type pendingImage struct {
	blk   gpu.BlockRef
	warps []warpSnap
}

// Image captures the controller's state. d is the device whose paused
// launch the controller drives. It fails if the state names a warp that
// is no longer resident on d (none of the benchmarks' launches, paused
// anywhere under any scheme, leaves one).
func (c *Controller) Image(d *gpu.Device) (*Image, error) {
	warps, blocks := d.Refs()
	var missing error
	wref := func(w *gpu.Warp) gpu.WarpRef {
		r, ok := warps[w]
		if !ok && missing == nil {
			missing = fmt.Errorf("flame: controller state names a warp the device does not hold")
		}
		return r
	}
	bref := func(b *gpu.BlockState) gpu.BlockRef {
		r, ok := blocks[b]
		if !ok && missing == nil {
			missing = fmt.Errorf("flame: controller state names a block the device does not hold")
		}
		return r
	}
	img := &Image{stats: c.Stats, nextFP: c.nextFP, rbqs: make([]*rbqImage, len(c.rbqs))}
	for i, q := range c.rbqs {
		if q == nil {
			continue
		}
		qi := &rbqImage{lastReady: q.lastReady, lastPush: q.lastPush, depth: q.Depth}
		for _, e := range q.entries {
			qi.entries = append(qi.entries, rbqEntryImage{w: wref(e.w), snap: e.snap, readyAt: e.readyAt})
		}
		img.rbqs[i] = qi
	}
	for w, snap := range c.rpt {
		img.rpt = append(img.rpt, warpSnap{wref(w), snap})
	}
	for w, pc := range c.cleared {
		img.cleared = append(img.cleared, warpPC{wref(w), pc})
	}
	for w, b := range c.ckpt {
		img.ckpt = append(img.ckpt, warpCkpt{wref(w), ckptBuf{
			pend: slices.Clone(b.pend), comm: slices.Clone(b.comm),
			pendSet: slices.Clone(b.pendSet), commSet: slices.Clone(b.commSet),
		}})
	}
	for _, e := range c.undo {
		u := undoImage{w: wref(e.w), space: e.space, addr: e.addr, old: e.old}
		if e.space == isa.SpaceShared {
			u.blk = bref(e.blk)
		}
		img.undo = append(img.undo, u)
	}
	for b, pend := range c.sectionPending {
		p := pendingImage{blk: bref(b)}
		for w, snap := range pend {
			p.warps = append(p.warps, warpSnap{wref(w), snap})
		}
		img.pending = append(img.pending, p)
	}
	if missing != nil {
		return nil, missing
	}
	return img, nil
}

// Restore loads img into the controller, naming d's warps and blocks: d
// must already hold the restored gpu.Image taken with it. The
// controller's Mode must be the imaged one's. Snapshots are shared with
// the image, which is safe because nothing writes a snapshot's stack in
// place.
func (c *Controller) Restore(img *Image, d *gpu.Device) {
	c.Stats, c.nextFP = img.stats, img.nextFP
	clear(c.rpt)
	clear(c.cleared)
	clear(c.ckpt)
	clear(c.sectionPending)
	c.rbqs = c.rbqs[:0]
	for _, qi := range img.rbqs {
		if qi == nil {
			c.rbqs = append(c.rbqs, nil)
			continue
		}
		q := &RBQ{lastReady: qi.lastReady, lastPush: qi.lastPush, Depth: qi.depth}
		for _, e := range qi.entries {
			q.entries = append(q.entries, rbqEntry{w: d.WarpAt(e.w), snap: e.snap, readyAt: e.readyAt})
		}
		c.rbqs = append(c.rbqs, q)
	}
	for _, e := range img.rpt {
		c.rpt[d.WarpAt(e.w)] = e.snap
	}
	for _, e := range img.cleared {
		c.cleared[d.WarpAt(e.w)] = e.pc
	}
	for _, e := range img.ckpt {
		b := c.newCkptBuf()
		copy(b.pend, e.buf.pend)
		copy(b.comm, e.buf.comm)
		copy(b.pendSet, e.buf.pendSet)
		copy(b.commSet, e.buf.commSet)
		c.ckpt[d.WarpAt(e.w)] = b
	}
	c.undo = c.undo[:0]
	for _, u := range img.undo {
		e := undoEntry{w: d.WarpAt(u.w), space: u.space, addr: u.addr, old: u.old}
		if u.space == isa.SpaceShared {
			e.blk = d.BlockAt(u.blk)
		}
		c.undo = append(c.undo, e)
	}
	for _, p := range img.pending {
		pend := make(map[*gpu.Warp]Snapshot, len(p.warps))
		for _, e := range p.warps {
			pend[d.WarpAt(e.w)] = e.snap
		}
		c.sectionPending[d.BlockAt(p.blk)] = pend
	}
}
