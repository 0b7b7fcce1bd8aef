package analysis

import (
	"fmt"

	"flame/internal/isa"
	"flame/internal/kernel"
)

// SiteClass classifies one register-destination strike site — an
// (instruction, destination register) pair — by what a corrupted value
// written there can reach. The classes partition every site and order
// by increasing vulnerability; they serve both as a stratification key
// (outcome variance concentrates in SiteStoreReach) and as the static
// half of AVF prediction (the first three classes are certainly masked
// absent detection: the corrupted value provably never reaches memory,
// control flow, or timing).
type SiteClass uint8

const (
	// SiteDead: the destination is not live after the instruction — no
	// path reads the value before an unpredicated redefinition. The
	// strike lands in garbage.
	SiteDead SiteClass = iota
	// SiteShortLived: the value is read again, but its whole def-use
	// interval closes inside the defining basic block, and the register
	// is outside the store-reach slice — consumers exist but none can
	// forward the corruption to memory, control, or timing.
	SiteShortLived
	// SiteLongLived: like SiteShortLived, but the interval escapes the
	// defining block (the value crosses a control-flow edge, possibly a
	// divergence reconvergence point, before dying).
	SiteLongLived
	// SiteStoreReach: the destination is live and inside
	// flame.StoreReachSlice — the corruption can transitively feed a
	// store address, store data, predicate, branch, or latency, so the
	// trial outcome is value-dependent.
	SiteStoreReach

	NumSiteClasses
)

var siteClassNames = [NumSiteClasses]string{
	SiteDead:       "dead",
	SiteShortLived: "short",
	SiteLongLived:  "long",
	SiteStoreReach: "store",
}

// String returns the class's report spelling.
func (c SiteClass) String() string {
	if int(c) < len(siteClassNames) {
		return siteClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Intervals holds the static def-use interval of every register-writing
// instruction of a program: whether the written value is live at all,
// where its last in-block use sits, and whether the value survives the
// block exit. The solver is predicate-aware (a predicated def merges
// with the incoming value, so it neither kills liveness nor ends an
// interval) and divergence-aware for free: reconvergence joins are CFG
// edges, so a value read only after the IPDOM point is live out of both
// divergent blocks.
type Intervals struct {
	g  *kernel.CFG
	lv *Liveness
	// LiveAfterDef[i] reports whether instruction i's destination is
	// live immediately after i executes (false when i defines nothing).
	LiveAfterDef []bool
	// LastUse[i] is the largest instruction index j > i inside i's
	// block that may read i's destination before any unpredicated
	// redefinition, or -1 if no such in-block use exists.
	LastUse []int
	// EscapesBlock[i] reports that i's destination is still live at the
	// block exit (the interval crosses a control-flow edge).
	EscapesBlock []bool
}

// Liveness returns the block-level liveness the intervals were built on.
func (iv *Intervals) Liveness() *Liveness { return iv.lv }

// ComputeIntervals runs the per-instruction interval analysis over a
// CFG. It is a single backward scan per block seeded with block-level
// liveness, so it costs O(insts) after ComputeLiveness.
func ComputeIntervals(g *kernel.CFG) *Intervals {
	p := g.Prog
	n := len(p.Insts)
	iv := &Intervals{
		g:            g,
		lv:           ComputeLiveness(g),
		LiveAfterDef: make([]bool, n),
		LastUse:      make([]int, n),
		EscapesBlock: make([]bool, n),
	}
	for i := range iv.LastUse {
		iv.LastUse[i] = -1
	}
	live := NewBitSet(p.NumRegs)
	lastUse := make([]int, p.NumRegs)
	escapes := make([]bool, p.NumRegs)
	var uses []isa.Reg
	for _, b := range g.Blocks {
		live.Copy(iv.lv.LiveOut[b.ID])
		for r := 0; r < p.NumRegs; r++ {
			lastUse[r] = -1
			escapes[r] = live.Has(r)
		}
		for j := b.End - 1; j >= b.Start; j-- {
			in := &p.Insts[j]
			// Record the def site against the state strictly after j.
			if d := in.Defs(); d != isa.NoReg {
				iv.LiveAfterDef[j] = live.Has(int(d))
				iv.LastUse[j] = lastUse[d]
				iv.EscapesBlock[j] = escapes[d]
				// An unpredicated def kills the incoming value: reads
				// above j belong to this def's interval, not to earlier
				// ones.
				if !in.Guard.Valid() {
					live.Clear(int(d))
					lastUse[d] = -1
					escapes[d] = false
				}
			}
			uses = uses[:0]
			for _, r := range in.Uses(uses) {
				live.Set(int(r))
				if lastUse[r] < 0 {
					lastUse[r] = j // backward scan: first sighting is the last use
				}
			}
		}
	}
	return iv
}

// ClassOf returns the site class of instruction i's destination under
// the given store-reach slice; ok is false when i defines no register.
func (iv *Intervals) ClassOf(i int, storeReach map[isa.Reg]bool) (SiteClass, bool) {
	d := iv.g.Prog.Insts[i].Defs()
	if d == isa.NoReg {
		return 0, false
	}
	switch {
	case !iv.LiveAfterDef[i]:
		return SiteDead, true
	case storeReach[d]:
		return SiteStoreReach, true
	case iv.EscapesBlock[i]:
		return SiteLongLived, true
	default:
		return SiteShortLived, true
	}
}
