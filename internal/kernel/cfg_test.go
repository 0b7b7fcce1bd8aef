package kernel

import (
	"testing"

	"flame/internal/isa"
)

// diamond: entry branches to two arms that rejoin and exit.
const diamondSrc = `
    mov r0, %tid.x
    setp.lt p0, r0, 16
@!p0 bra ELSE
    mov r1, 1
    bra JOIN
ELSE:
    mov r1, 2
JOIN:
    add r2, r1, 1
    exit
`

// loop: simple counted loop.
const loopSrc = `
    mov r0, 0
    mov r1, 8
LOOP:
    add r0, r0, 1
    setp.lt p0, r0, r1
@p0 bra LOOP
    exit
`

func TestCFGDiamond(t *testing.T) {
	p := isa.MustParse("diamond", diamondSrc)
	g := Build(p)
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g)
	}
	b0 := g.Blocks[0]
	if len(b0.Succs) != 2 {
		t.Fatalf("entry succs = %v", b0.Succs)
	}
	join := g.Blocks[g.BlockOf[6]]
	if len(join.Preds) != 2 {
		t.Fatalf("join preds = %v", join.Preds)
	}
	exits := g.ExitBlocks()
	if len(exits) != 1 || exits[0] != join.ID {
		t.Fatalf("exits = %v", exits)
	}
}

func TestCFGLoop(t *testing.T) {
	p := isa.MustParse("loop", loopSrc)
	g := Build(p)
	// Blocks: [0,2) preheader, [2,5) body, [5,6) exit.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d\n%s", len(g.Blocks), g)
	}
	body := g.Blocks[1]
	selfLoop := false
	for _, s := range body.Succs {
		if s == body.ID {
			selfLoop = true
		}
	}
	if !selfLoop {
		t.Fatalf("loop body should have self edge: %v", body.Succs)
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	p := isa.MustParse("diamond", diamondSrc)
	g := Build(p)
	pd := PostDominators(g)
	join := g.BlockOf[6]
	// The join post-dominates the entry and both arms.
	if pd.IPDom[g.Entry()] != join {
		t.Errorf("ipdom(entry) = %d, want join B%d", pd.IPDom[g.Entry()], join)
	}
	if pd.IPDom[g.BlockOf[3]] != join || pd.IPDom[g.BlockOf[5]] != join {
		t.Error("arms must immediately post-dominate to join")
	}
}

func TestReconvergencePoints(t *testing.T) {
	p := isa.MustParse("diamond", diamondSrc)
	info := Analyze(p)
	// The predicated branch at inst 2 reconverges at JOIN (inst 6).
	if got := info.Reconv[2]; got != 6 {
		t.Fatalf("reconv of branch@2 = %d, want 6", got)
	}
	// The unconditional bra at inst 4 has a reconvergence point too
	// (it cannot diverge, but the entry is harmless).
	if info.Reconv[0] != -1 {
		t.Fatal("non-branch should have reconv -1")
	}
}

func TestReconvergenceLoop(t *testing.T) {
	p := isa.MustParse("loop", loopSrc)
	info := Analyze(p)
	// Backward branch at inst 4 reconverges at loop exit (inst 5).
	if got := info.Reconv[4]; got != 5 {
		t.Fatalf("loop branch reconv = %d, want 5", got)
	}
}

func TestRPOStartsAtEntryAndCoversReachable(t *testing.T) {
	p := isa.MustParse("diamond", diamondSrc)
	g := Build(p)
	rpo := g.RPO()
	if rpo[0] != g.Entry() {
		t.Fatal("RPO must start at entry")
	}
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(rpo), len(g.Blocks))
	}
	// A block must appear after at least one predecessor (except entry and
	// loop headers; diamond has no loops).
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	for _, b := range g.Blocks[1:] {
		ok := false
		for _, pr := range b.Preds {
			if pos[pr] < pos[b.ID] {
				ok = true
			}
		}
		if !ok {
			t.Errorf("B%d appears before all predecessors", b.ID)
		}
	}
}

func TestUnreachableBlockHandled(t *testing.T) {
	src := `
    mov r0, 1
    bra END
DEAD:
    mov r1, 2
END:
    exit
`
	p := isa.MustParse("dead", src)
	g := Build(p)
	dead := g.BlockOf[2]
	reach := g.Reachable()
	if reach[dead] {
		t.Fatal("dead block reported reachable")
	}
	// Analyze must not panic on unreachable code.
	_ = Analyze(p)
}

func TestReconvergenceLoopInsideBranch(t *testing.T) {
	// A loop nested in one arm of a diamond: the branch into the arm
	// reconverges at the join after the loop, and the loop's own branch
	// reconverges at the loop exit.
	src := `
    mov r0, %tid.x
    setp.lt p0, r0, 16
@!p0 bra ELSE
    mov r1, 0
INNER:
    add r1, r1, 1
    setp.lt p1, r1, 4
@p1 bra INNER
    bra JOIN
ELSE:
    mov r1, 99
JOIN:
    add r2, r1, 1
    exit
`
	p := isa.MustParse("lb", src)
	info := Analyze(p)
	// The outer divergent branch (inst 2) reconverges at JOIN (inst 9).
	if got := info.Reconv[2]; got != 9 {
		t.Fatalf("outer reconv = %d, want 9", got)
	}
	// The inner loop branch (inst 6) reconverges at the loop exit (inst 7).
	if got := info.Reconv[6]; got != 7 {
		t.Fatalf("inner reconv = %d, want 7", got)
	}
}

func TestPostDominatorsMultipleExits(t *testing.T) {
	// Two exit blocks: nothing but the virtual exit post-dominates the
	// branch block.
	src := `
    mov r0, %tid.x
    setp.lt p0, r0, 16
@!p0 bra OUT2
    mov r1, 1
    exit
OUT2:
    mov r1, 2
    exit
`
	p := isa.MustParse("me", src)
	g := Build(p)
	pd := PostDominators(g)
	if pd.IPDom[g.Entry()] != pd.VirtualExit {
		t.Fatalf("entry ipdom = %d, want virtual exit %d", pd.IPDom[g.Entry()], pd.VirtualExit)
	}
	info := Analyze(p)
	// The divergent branch reconverges only at thread exit.
	if got := info.Reconv[2]; got != p.Len() {
		t.Fatalf("reconv = %d, want %d (exit)", got, p.Len())
	}
}
