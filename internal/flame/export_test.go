package flame

// ImageState counts the state a controller holds, as CopyFrom copies
// it: warp slots with an RPT entry, a cleared crossing, a checkpoint
// buffer or a pending section snapshot, undo entries and queued RBQ
// entries.
func ImageState(c *Controller) (rpt, cleared, ckpt, undo, pending, queued int) {
	for _, q := range c.rbqs {
		if q != nil {
			queued += q.Len()
		}
	}
	for _, s := range c.warps {
		rpt += b2i(s.rpt.PC != none)
		cleared += b2i(s.cleared != none)
		ckpt += b2i(s.ckpt != nil)
		pending += b2i(s.pending.PC != none)
	}
	return rpt, cleared, ckpt, len(c.undo), pending, queued
}

// ClearedMidSection counts the warp slots whose cleared crossing lies
// strictly inside an extended section: a pop under EagerSectionVerify
// that could not advance the recovery PC.
func ClearedMidSection(c *Controller) int {
	n := 0
	for _, s := range c.warps {
		n += b2i(s.cleared != none && c.midSection(s.cleared))
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
