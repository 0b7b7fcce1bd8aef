package gpu

import (
	"fmt"
	"math/bits"

	"flame/internal/isa"
)

// MemFault describes an out-of-bounds or misaligned simulated access.
type MemFault struct {
	Space isa.Space
	Addr  uint32
	Op    string
}

// Error implements the error interface.
func (f *MemFault) Error() string {
	return fmt.Sprintf("gpu: %s fault: %s address %#x", f.Space, f.Op, f.Addr)
}

// Dirty-tracking page geometry. Global memory is divided into fixed
// 1 KiB pages; Store sets the owning page's bit in a compact bitmap so
// pooled trial engines can restore and diff only the pages a trial
// actually touched instead of the whole device footprint.
const (
	// PageWords is the dirty-tracking page size in 32-bit words (1 KiB).
	PageWords = 256
	pageShift = 8 // log2(PageWords)
	// PageBytes is the dirty-tracking page size in bytes.
	PageBytes = PageWords * 4
)

// GlobalMem is the device's flat global memory (word-addressed storage,
// byte-addressed accesses) with page-granular dirty tracking: every
// successful Store marks the written page in a bitmap, and the
// ResetDirty / RestoreFrom / DiffAgainst API lets callers pay O(touched
// pages) instead of O(footprint) for snapshot restore and golden diff.
// Writes through the Words() slice bypass tracking and are reserved for
// host-side setup before a snapshot is taken.
type GlobalMem struct {
	words []uint32
	dirty []uint64 // one bit per page; bit p set = page p written via Store
}

// NewGlobalMem allocates global memory of the given byte size with a
// clean dirty bitmap.
func NewGlobalMem(bytes int) *GlobalMem {
	words := make([]uint32, (bytes+3)/4)
	pages := (len(words) + PageWords - 1) / PageWords
	return &GlobalMem{words: words, dirty: make([]uint64, (pages+63)/64)}
}

// SizeBytes returns the memory size in bytes.
func (m *GlobalMem) SizeBytes() int { return len(m.words) * 4 }

// NumPages returns the number of dirty-tracking pages (the last one may
// be partial).
func (m *GlobalMem) NumPages() int { return (len(m.words) + PageWords - 1) / PageWords }

// Load reads the 32-bit word at a byte address.
func (m *GlobalMem) Load(addr uint32) (uint32, error) {
	i, err := m.index(addr, "load")
	if err != nil {
		return 0, err
	}
	return m.words[i], nil
}

// Store writes the 32-bit word at a byte address and marks its page
// dirty. A faulting (out-of-bounds or misaligned) store writes nothing
// and must leave the bitmap untouched: the fault aborts the launch, and
// a stale bit would make the next restore copy a page the trial never
// changed.
func (m *GlobalMem) Store(addr, v uint32) error {
	i, err := m.index(addr, "store")
	if err != nil {
		return err
	}
	m.words[i] = v
	m.markDirty(i)
	return nil
}

// markDirty marks the page holding word i dirty.
func (m *GlobalMem) markDirty(i int) {
	p := i >> pageShift
	m.dirty[p>>6] |= 1 << uint(p&63)
}

func (m *GlobalMem) index(addr uint32, op string) (int, error) {
	if addr%4 != 0 || int(addr/4) >= len(m.words) {
		return 0, &MemFault{Space: isa.SpaceGlobal, Addr: addr, Op: op}
	}
	return int(addr / 4), nil
}

// Words exposes the underlying storage for host-side setup/validation.
// Writes through it are NOT dirty-tracked; snapshot users must either
// write before the snapshot is taken or go through Store.
func (m *GlobalMem) Words() []uint32 { return m.words }

// DirtyPages exposes the raw dirty bitmap (bit p = page p). The slice
// is live and read-only for callers; it is invalidated by ResetDirty,
// RestoreFrom and MarkAllDirty.
func (m *GlobalMem) DirtyPages() []uint64 { return m.dirty }

// PageDirty reports whether page p has been written via Store since the
// last ResetDirty/RestoreFrom.
func (m *GlobalMem) PageDirty(p int) bool { return m.dirty[p>>6]&(1<<uint(p&63)) != 0 }

// DirtyPageCount returns the number of dirty pages.
func (m *GlobalMem) DirtyPageCount() int {
	n := 0
	for _, w := range m.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// ResetDirty clears the dirty bitmap without touching memory contents.
func (m *GlobalMem) ResetDirty() {
	for i := range m.dirty {
		m.dirty[i] = 0
	}
}

// MarkAllDirty sets every page dirty, forcing the next RestoreFrom to
// restore the full footprint (fresh devices start from zeroed memory,
// which is not any snapshot's content).
func (m *GlobalMem) MarkAllDirty() {
	pages := m.NumPages()
	for p := 0; p < pages; p++ {
		m.dirty[p>>6] |= 1 << uint(p&63)
	}
}

// RestoreFrom copies every dirty page back from the snapshot image and
// clears the bitmap, leaving memory bit-identical to init wherever it
// had diverged. It returns the number of pages restored. The image must
// have the memory's exact word length (it is the same device geometry
// the snapshot was taken from).
func (m *GlobalMem) RestoreFrom(init []uint32) int {
	if len(init) != len(m.words) {
		panic(fmt.Sprintf("gpu: RestoreFrom image has %d words, memory has %d", len(init), len(m.words)))
	}
	restored := 0
	for wi, bm := range m.dirty {
		if bm == 0 {
			continue
		}
		for bm != 0 {
			b := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(b)
			p := wi*64 + b
			start := p * PageWords
			end := start + PageWords
			if end > len(m.words) {
				end = len(m.words)
			}
			copy(m.words[start:end], init[start:end])
			restored++
		}
		m.dirty[wi] = 0
	}
	return restored
}

// DiffAgainst compares memory with a reference image, but only over the
// candidate pages: pages currently dirty plus pages set in extra (the
// caller's precomputed "reference differs from the restore snapshot"
// bitmap; nil means none). Any page outside the candidate set is equal
// by construction when (a) memory was restored from a snapshot and only
// Store-tracked writes happened since, and (b) extra covers every page
// where ref differs from that snapshot. It returns the first diverging
// byte address (little-endian within a word, matching the simulator's
// byte addressing), the number of pages compared, and whether the
// candidate pages — and under (a)+(b), the whole image — are equal.
func (m *GlobalMem) DiffAgainst(ref []uint32, extra []uint64) (byteAddr int64, pages int, equal bool) {
	if len(ref) != len(m.words) {
		return -1, 0, false
	}
	for wi, bm := range m.dirty {
		if wi < len(extra) {
			bm |= extra[wi]
		}
		for bm != 0 {
			b := bits.TrailingZeros64(bm)
			bm &^= 1 << uint(b)
			p := wi*64 + b
			start := p * PageWords
			if start >= len(m.words) {
				continue
			}
			end := start + PageWords
			if end > len(m.words) {
				end = len(m.words)
			}
			pages++
			for i := start; i < end; i++ {
				if x := m.words[i] ^ ref[i]; x != 0 {
					return int64(i)*4 + int64(bits.TrailingZeros32(x)/8), pages, false
				}
			}
		}
	}
	return -1, pages, true
}

// cacheModel is a tag-only set-associative LRU cache used for timing.
type cacheModel struct {
	sets, ways int
	lineBytes  uint32
	tags       [][]uint64 // [set][way]; 0 = invalid
	tick       [][]int64  // LRU timestamps
	now        int64
}

func newCache(sets, ways, lineBytes int) *cacheModel {
	c := &cacheModel{sets: sets, ways: ways, lineBytes: uint32(lineBytes)}
	c.tags = make([][]uint64, sets)
	c.tick = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.tick[i] = make([]int64, ways)
	}
	return c
}

// access probes the line containing addr, filling it on miss.
// It reports whether the access hit.
func (c *cacheModel) access(addr uint32) bool {
	line := uint64(addr / c.lineBytes)
	set := int(line) % c.sets
	tag := line + 1 // +1 so 0 stays "invalid"
	c.now++
	lru, lruAt := 0, c.tick[set][0]
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == tag {
			c.tick[set][w] = c.now
			return true
		}
		if c.tick[set][w] < lruAt {
			lru, lruAt = w, c.tick[set][w]
		}
	}
	c.tags[set][lru] = tag
	c.tick[set][lru] = c.now
	return false
}

// reset invalidates every line.
func (c *cacheModel) reset() {
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = 0
			c.tick[s][w] = 0
		}
	}
}
