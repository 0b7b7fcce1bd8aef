package analysis

import (
	"testing"

	"flame/internal/isa"
)

// reach builds a store-reach stand-in set from register numbers (the
// real slice comes from flame.Sites.StoreReach; intervals only consume
// the membership map).
func reach(regs ...int) map[isa.Reg]bool {
	m := map[isa.Reg]bool{}
	for _, r := range regs {
		m[isa.Reg(r)] = true
	}
	return m
}

func TestIntervalsStraightLine(t *testing.T) {
	_, g := build(t, "iv-sl", `
    mov r0, 1
    add r1, r0, 1
    add r2, r1, 1
    exit
`)
	iv := ComputeIntervals(g)
	if !iv.LiveAfterDef[0] || iv.LastUse[0] != 1 || iv.EscapesBlock[0] {
		t.Errorf("r0 def: live=%v last=%d esc=%v, want live,last=1,no-escape",
			iv.LiveAfterDef[0], iv.LastUse[0], iv.EscapesBlock[0])
	}
	if c, ok := iv.ClassOf(0, reach()); !ok || c != SiteShortLived {
		t.Errorf("inst 0 class = %v, want short", c)
	}
	// r2 is never read: a dead site.
	if iv.LiveAfterDef[2] || iv.LastUse[2] != -1 || iv.EscapesBlock[2] {
		t.Errorf("r2 def should be dead")
	}
	if c, ok := iv.ClassOf(2, reach(2)); !ok || c != SiteDead {
		t.Errorf("inst 2 class = %v, want dead (deadness beats store-reach)", c)
	}
	if _, ok := iv.ClassOf(3, nil); ok {
		t.Error("exit defines nothing; ClassOf must report no site")
	}
}

// A predicated def merges with the incoming value: it must neither kill
// the earlier def's liveness nor terminate its interval (masked lanes
// keep — and may later read — the old, possibly corrupted, value).
func TestIntervalsPredicatedDefDoesNotKill(t *testing.T) {
	_, g := build(t, "iv-pred", `
    setp.lt p0, r1, r2
    mov r0, 5
@p0 mov r0, 1
    add r3, r0, 1
    exit
`)
	iv := ComputeIntervals(g)
	if !iv.LiveAfterDef[1] {
		t.Fatal("r0 def at inst 1 must stay live across the predicated redefinition")
	}
	if iv.LastUse[1] != 3 {
		t.Errorf("inst 1 last use = %d, want 3 (read through the predicated def)", iv.LastUse[1])
	}
	// The predicated def site itself is live too (same consumer).
	if !iv.LiveAfterDef[2] || iv.LastUse[2] != 3 {
		t.Errorf("predicated def site: live=%v last=%d, want live,3",
			iv.LiveAfterDef[2], iv.LastUse[2])
	}
	// An unpredicated redefinition, by contrast, does end the interval.
	_, g2 := build(t, "iv-kill", `
    mov r0, 5
    mov r0, 1
    add r3, r0, 1
    exit
`)
	iv2 := ComputeIntervals(g2)
	if iv2.LiveAfterDef[0] || iv2.LastUse[0] != -1 {
		t.Errorf("unpredicated redef must kill: live=%v last=%d", iv2.LiveAfterDef[0], iv2.LastUse[0])
	}
}

// A value written on one divergent path and read only after the IPDOM
// reconvergence point must escape its block and classify long-lived:
// the interval join happens across the CFG edge into the join block.
func TestIntervalsDivergenceReconvergenceJoin(t *testing.T) {
	_, g := build(t, "iv-diamond", `
    setp.lt p0, r0, r1
@!p0 bra ELSE
    mov r2, 1
    bra JOIN
ELSE:
    mov r2, 2
JOIN:
    add r4, r2, 1
    exit
`)
	iv := ComputeIntervals(g)
	p := g.Prog
	for i := range p.Insts {
		if p.Insts[i].Defs() != isa.Reg(2) {
			continue
		}
		if !iv.LiveAfterDef[i] {
			t.Errorf("inst %d: r2 def must be live into the join block", i)
		}
		if !iv.EscapesBlock[i] {
			t.Errorf("inst %d: r2 interval must escape its divergent block", i)
		}
		if iv.LastUse[i] != -1 {
			t.Errorf("inst %d: r2 has no in-block use, got last use %d", i, iv.LastUse[i])
		}
		if c, _ := iv.ClassOf(i, reach()); c != SiteLongLived {
			t.Errorf("inst %d class = %v, want long", i, c)
		}
		// The same site under a store-reach slice containing r2 is a
		// store-reaching site: reach membership dominates interval shape.
		if c, _ := iv.ClassOf(i, reach(2)); c != SiteStoreReach {
			t.Errorf("inst %d class under reach = %v, want store", i, c)
		}
	}
}

// Loop-carried values must stay live around the back edge (the interval
// escapes the loop body block even when the next textual use is above
// the def).
func TestIntervalsLoopCarried(t *testing.T) {
	_, g := build(t, "iv-loop", `
    mov r0, 0
    mov r1, 8
LOOP:
    add r0, r0, 1
    setp.lt p0, r0, r1
@p0 bra LOOP
    exit
`)
	iv := ComputeIntervals(g)
	// The add's def (inst 2) is read by setp in-block and again by
	// itself around the back edge.
	if !iv.LiveAfterDef[2] || iv.LastUse[2] != 3 || !iv.EscapesBlock[2] {
		t.Errorf("loop add: live=%v last=%d esc=%v, want live,3,escape",
			iv.LiveAfterDef[2], iv.LastUse[2], iv.EscapesBlock[2])
	}
	// The preheader init (inst 0) escapes into the loop.
	if !iv.LiveAfterDef[0] || !iv.EscapesBlock[0] {
		t.Error("loop init def must escape its block")
	}
}

// The per-site results must agree with the reference per-instruction
// liveness walk on every def site of a nontrivial program.
func TestIntervalsMatchLiveAfterReference(t *testing.T) {
	_, g := build(t, "iv-ref", `
    mov r0, %tid.x
    setp.lt p0, r0, r3
@!p0 bra SKIP
    shl r1, r0, 2
    add r2, r1, r4
    ld.global r5, [r2]
    add r5, r5, 1
    st.global [r2], r5
SKIP:
    exit
`)
	iv := ComputeIntervals(g)
	lv := iv.Liveness()
	for i := range g.Prog.Insts {
		d := g.Prog.Insts[i].Defs()
		if d == isa.NoReg {
			continue
		}
		want := lv.LiveAfter(i).Has(int(d))
		if iv.LiveAfterDef[i] != want {
			t.Errorf("inst %d: LiveAfterDef=%v, reference LiveAfter=%v", i, iv.LiveAfterDef[i], want)
		}
	}
}
