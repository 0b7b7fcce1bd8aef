package core

import (
	"testing"

	"flame/internal/analysis"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// Differential test: the static interval analysis (internal/analysis)
// against the dynamic tables the prune index records from the golden
// schedule. The static solver is an over-approximation of the dynamic
// trace, so the two must agree one-way on every recorded event:
//
//   - A site the solver classifies SiteDead (destination not live after
//     the def on ANY path) can never be observed read again: its
//     per-lane vulnerable mask must be zero.
//   - An event with a nonzero vulnerable mask implies the warp-level
//     last-use table saw a read of that register after the event — the
//     lane refinement only narrows the warp-level bound.
//
// The reverse direction must stay strict somewhere: statically-live
// sites that are dynamically dead (divergent or early-exiting reads)
// are exactly the refinement the pruner and the census exploit, so the
// corpus must exhibit at least one.
func TestStaticLivenessAgreesWithDynamicTables(t *testing.T) {
	totalRefined := 0
	for _, tc := range []struct {
		spec *KernelSpec
		opt  Options
	}{
		{saxpySpec(), Options{Scheme: Baseline}},
		{saxpySpec(), FlameOptions()},
		{deadTailSpec(), Options{Scheme: Baseline}},
		{deadTailSpec(), FlameOptions()},
		{divergentReadSpec(), Options{Scheme: Baseline}},
	} {
		t.Run(tc.spec.Name+"/"+tc.opt.Scheme.String(), func(t *testing.T) {
			g, err := GoldenRun(censusArch(), tc.spec, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			px := BuildPruneIndex(censusArch(), tc.spec, g, 0)
			if px.Disabled() != "" {
				t.Fatalf("prune index disabled: %s", px.Disabled())
			}
			prog := g.Comp.Prog
			iv := analysis.ComputeIntervals(kernel.Build(prog))
			lastUse := lastUses(px, prog)

			staticDeadEvents, refined := 0, 0
			for evi := range px.events {
				ev := &px.events[evi]
				in := &prog.Insts[ev.pc]
				d := in.Defs()
				if d == isa.NoReg {
					if px.vuln[evi] != 0 {
						t.Fatalf("event %d (pc %d %s): defines nothing but vuln=%#x",
							evi, ev.pc, in, px.vuln[evi])
					}
					continue
				}
				cls, ok := iv.ClassOf(int(ev.pc), g.Sites.StoreReach())
				if !ok {
					t.Fatalf("event %d: ClassOf disagrees with Defs at pc %d", evi, ev.pc)
				}
				if cls == analysis.SiteDead {
					staticDeadEvents++
					// Static dead-after-def is a universal claim; one
					// observed later read refutes the solver.
					if px.vuln[evi] != 0 {
						t.Fatalf("event %d (pc %d %s): statically dead but lanes %#x observed reading it later",
							evi, ev.pc, in, px.vuln[evi])
					}
				}
				if px.vuln[evi] != 0 {
					if iv.LiveAfterDef[ev.pc] == false {
						t.Fatalf("event %d (pc %d %s): dynamically read later but statically not live-after-def",
							evi, ev.pc, in)
					}
					// The warp-level table must contain the lane-level
					// reads: some event after this one read d.
					lu := lastUseOf(lastUse[warpKey(ev.sm, ev.warp)], d)
					if lu <= int32(evi+1) {
						t.Fatalf("event %d (pc %d %s): vuln=%#x but warp last-use seq %d never passes the event",
							evi, ev.pc, in, px.vuln[evi], lu)
					}
				} else if cls != analysis.SiteDead && ev.mask != 0 {
					refined++ // statically live, dynamically dead: the pruner's win
				}
			}
			if staticDeadEvents == 0 && tc.spec.Name == "deadtail" {
				t.Error("deadtail recorded no statically-dead def events; the one-way check is vacuous")
			}
			totalRefined += refined
			t.Logf("%d events: %d static-dead, %d dynamically refined", len(px.events), staticDeadEvents, refined)
		})
	}
	// Straight-line kernels have no refinement to show; the divergent
	// corpus member must (the strict inclusion the pruner exploits).
	if totalRefined == 0 {
		t.Error("no statically-live but dynamically-dead event anywhere; the dynamic refinement is vacuous")
	}
}

// lastUses rebuilds the warp-level last-use table from the recorded
// schedule: per warp slot and register, the seq+1 of the last event
// that read it (0 = never read).
func lastUses(px *PruneIndex, prog *isa.Program) map[uint64][]int32 {
	lu := map[uint64][]int32{}
	var uses [4]isa.Reg
	for i := range px.events {
		ev := &px.events[i]
		key := warpKey(ev.sm, ev.warp)
		t := lu[key]
		if t == nil {
			t = make([]int32, prog.NumRegs)
			lu[key] = t
		}
		for _, r := range prog.Insts[ev.pc].Uses(uses[:0]) {
			t[r] = int32(i + 1)
		}
	}
	return lu
}

// lastUseOf reads the last-use table defensively: a warp that never
// read any register has no table at all (0 = never read).
func lastUseOf(lu []int32, r isa.Reg) int32 {
	if lu == nil {
		return 0
	}
	return lu[r]
}
