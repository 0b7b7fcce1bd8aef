package flame

// ImageState counts what a controller image holds: RPT entries,
// cleared crossings, checkpoint buffers, undo entries, blocks with
// pending section verifications and queued RBQ entries.
func ImageState(img *Image) (rpt, cleared, ckpt, undo, pending, queued int) {
	for _, q := range img.rbqs {
		if q != nil {
			queued += len(q.entries)
		}
	}
	return len(img.rpt), len(img.cleared), len(img.ckpt), len(img.undo), len(img.pending), queued
}
