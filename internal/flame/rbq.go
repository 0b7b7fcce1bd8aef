// Package flame implements the paper's architecture contribution: the
// recovery PC table (RPT), the region boundary queue (RBQ) that realizes
// the verification conveyor, WCDL-aware warp scheduling, collective
// verification of extended sections, and soft-error recovery with fault
// injection. It attaches to the gpu simulator through gpu.Hooks.
package flame

import "flame/internal/gpu"

// Snapshot is the per-warp architectural control state stored in the RPT:
// everything needed to restart the warp at a region boundary. Registers
// and memory are deliberately absent — recovering them is idempotence's
// job (plus checkpoint restore under the checkpointing scheme).
type Snapshot struct {
	// PC is the recovery PC: the first instruction of the youngest
	// unverified region.
	PC int
	// Stack is the SIMT reconvergence stack at the boundary.
	Stack gpu.SIMTStack
	// BarGen is the warp's barrier generation count at the boundary.
	BarGen int
}

// snapshotOf captures a warp's current control state.
func snapshotOf(w *gpu.Warp) Snapshot {
	return Snapshot{PC: w.PC(), Stack: w.Stack.Clone(), BarGen: w.BarGen}
}

// rbqEntry is one conveyor slot: a warp awaiting verification of the
// region that ended at its snapshot.
type rbqEntry struct {
	// warp is the warp's slot on its SM (gpu.Warp.ID).
	warp int
	// snap is the state at the boundary; it becomes the warp's RPT entry
	// once verified.
	snap Snapshot
	// readyAt is the cycle the entry pops (enqueue + WCDL, serialized to
	// one dequeue per cycle as in the hardware conveyor).
	readyAt int64
}

// RBQ is one SM's region boundary queue. Hardware-wise it is WCDL
// entries of (warp id, valid) advancing one slot per cycle; the model
// keeps a FIFO with pop timestamps, which is observably identical.
type RBQ struct {
	entries   []rbqEntry
	lastReady int64
	lastPush  int64
	// Depth is the conveyor length in slots (= WCDL).
	Depth int
}

// CanPush reports whether the conveyor accepts an entry this cycle: the
// hardware shifts one slot per cycle, so at most one warp enters per
// cycle and occupancy never exceeds the conveyor depth.
func (q *RBQ) CanPush(now int64) bool {
	return (q.lastPush != now || len(q.entries) == 0) && len(q.entries) < q.Depth
}

// Push enqueues the warp in SM slot warp and returns the cycle its
// entry pops: WCDL cycles later, one entry per cycle.
func (q *RBQ) Push(warp int, snap Snapshot, now int64) int64 {
	ready := now + int64(q.Depth)
	if ready <= q.lastReady {
		ready = q.lastReady + 1
	}
	q.lastReady = ready
	q.lastPush = now
	q.entries = append(q.entries, rbqEntry{warp: warp, snap: snap, readyAt: ready})
	return ready
}

// Pop dequeues the front entry if it is due.
func (q *RBQ) Pop(now int64) (rbqEntry, bool) {
	if len(q.entries) == 0 || q.entries[0].readyAt > now {
		return rbqEntry{}, false
	}
	e := q.entries[0]
	copy(q.entries, q.entries[1:])
	q.entries = q.entries[:len(q.entries)-1]
	return e, true
}

// Flush discards every entry (error detected: all queued verifications
// are invalidated) and returns how many it discarded.
func (q *RBQ) Flush() int {
	n := len(q.entries)
	q.entries = q.entries[:0]
	return n
}

// copyFrom makes q a copy of src, reusing q's storage.
func (q *RBQ) copyFrom(src *RBQ) {
	entries := append(q.entries[:0], src.entries...)
	*q = *src
	q.entries = entries
}

// Len returns the current occupancy.
func (q *RBQ) Len() int { return len(q.entries) }

// NextReady returns the cycle the front entry pops. The queue is a
// FIFO with monotonically increasing readyAt, so the head is the
// earliest pending event. Call only when Len() > 0.
func (q *RBQ) NextReady() int64 { return q.entries[0].readyAt }

// BitsPerEntry returns the hardware width of one RBQ entry for a given
// number of warps per scheduler (warp id bits + valid bit), Section VI-A2.
func BitsPerEntry(warpsPerScheduler int) int {
	bits := 0
	for n := warpsPerScheduler - 1; n > 0; n >>= 1 {
		bits++
	}
	return bits + 1
}
