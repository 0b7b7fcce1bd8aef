package regions

import (
	"math/rand"
	"testing"

	"flame/internal/analysis"
	"flame/internal/isa"
)

const figure2Src = `
    ld.param r1, [0]
    ld.param r6, [4]
    ld.param r2, [8]
    ld.global r3, [r1]
    ld.global r4, [r6]
    add r4, r4, 1
    st.global [r6], r4
    ld.global r5, [r2]
    add r7, r3, r5
    mov r3, 9
    st.global [r2], r3
    exit
`

// figure10Src mirrors the paper's Figure 10 barrier pattern: initialize
// shared memory, barrier, read a neighbour's element, compute, store back.
const figure10Src = `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    mov r2, 7
    st.shared [r1], r2      // A[id] = x  (init)
    bar.sync
    ld.shared r3, [r1+4]    // t = A[id+1]
    mad r4, r3, r3, r2      // y = f(t)
    st.shared [r1], r4      // A[id] = y
    exit
`

func TestFormFigure2(t *testing.T) {
	p := isa.MustParse("fig2", figure2Src)
	res, err := Form(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries before the two anti-dependent stores (insts 6 and 10).
	if !p.Insts[6].Boundary || !p.Insts[10].Boundary {
		t.Fatalf("expected boundaries before insts 6 and 10:\n%s", p)
	}
	// The r3 register anti-dependence must be reported for renaming.
	found := false
	for _, v := range res.RegWARs {
		if v.Kind == analysis.RegWAR && v.Reg == isa.Reg(3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("r3 reg-war not reported: %v", res.RegWARs)
	}
	if err := VerifyIdempotence(p, nil, true); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	// Without allowing reg WARs, verification must fail (renaming not run).
	if err := VerifyIdempotence(p, nil, false); err == nil {
		t.Fatal("verification should fail before renaming")
	}
}

func TestFormBarrierBoundaries(t *testing.T) {
	p := isa.MustParse("fig10", figure10Src)
	res, err := Form(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier at inst 4: boundaries before it and after it.
	if !p.Insts[4].Boundary || !p.Insts[5].Boundary {
		t.Fatalf("barrier not isolated:\n%s", p)
	}
	if len(res.Sections) != 0 {
		t.Fatal("no sections expected without the optimization")
	}
	if err := VerifyIdempotence(p, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestFormFigure10Extension(t *testing.T) {
	p := isa.MustParse("fig10opt", figure10Src)
	res, err := Form(p, Options{ExtendAcrossBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 1 {
		t.Fatalf("sections = %d, want 1", len(res.Sections))
	}
	if res.ElidedBarriers != 1 {
		t.Fatalf("elided = %d, want 1", res.ElidedBarriers)
	}
	// The barrier boundary is gone: the whole kernel is one region.
	if p.Insts[4].Boundary || p.Insts[5].Boundary {
		t.Fatalf("barrier boundary not elided:\n%s", p)
	}
	if res.StaticRegions != 1 {
		t.Fatalf("static regions = %d, want 1", res.StaticRegions)
	}
	if err := VerifyIdempotence(p, res.Sections, true); err != nil {
		t.Fatal(err)
	}
}

func TestFormNoExtensionWhenGlobalStores(t *testing.T) {
	src := `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    mov r2, 7
    st.shared [r1], r2
    bar.sync
    ld.shared r3, [r1+4]
    ld.param r5, [0]
    add r6, r5, r1
    st.global [r6], r3      // global store disqualifies the section
    exit
`
	p := isa.MustParse("gstore", src)
	res, err := Form(p, Options{ExtendAcrossBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	// The section is truncated before the global write-back store: the
	// barrier boundary is elided, but the section must end at or before
	// the global store so collective replay only re-executes block-local
	// state plus the deterministic write-back tail.
	if len(res.Sections) != 1 {
		t.Fatalf("sections = %+v, want one truncated section", res.Sections)
	}
	s := res.Sections[0]
	if s.End > 8 {
		t.Fatalf("section %+v extends past the global store at 8", s)
	}
	if p.Insts[4].Boundary {
		t.Fatal("barrier boundary should be elided inside the section")
	}
	if err := VerifyIdempotence(p, res.Sections, true); err != nil {
		t.Fatal(err)
	}
}

func TestFormNoExtensionWithoutInitStore(t *testing.T) {
	src := `
.shared 256
    mov r0, %tid.x
    shl r1, r0, 2
    bar.sync                // no shared store before the barrier
    ld.shared r3, [r1+4]
    st.shared [r1], r3
    exit
`
	p := isa.MustParse("noinit", src)
	res, err := Form(p, Options{ExtendAcrossBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 0 {
		t.Fatalf("section wrongly detected: %+v", res.Sections)
	}
}

func TestFormAtomicIsolation(t *testing.T) {
	src := `
    mov r0, %tid.x
    shl r1, r0, 2
    ld.param r2, [0]
    atom.global.add r3, [r2], r0
    add r4, r3, 1
    st.global [r2+64], r4
    exit
`
	p := isa.MustParse("atomic", src)
	if _, err := Form(p, Options{}); err != nil {
		t.Fatal(err)
	}
	if !p.Insts[3].Boundary || !p.Insts[4].Boundary {
		t.Fatalf("atomic not isolated:\n%s", p)
	}
	if err := VerifyIdempotence(p, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestFormLoopStorePlacesInLoopBoundary(t *testing.T) {
	src := `
    mov r0, 0
    ld.param r1, [0]
LOOP:
    add r2, r1, r0
    ld.global r3, [r2]
    add r3, r3, 1
    st.global [r2], r3
    add r0, r0, 4
    setp.lt p0, r0, 256
@p0 bra LOOP
    exit
`
	p := isa.MustParse("loop", src)
	if _, err := Form(p, Options{}); err != nil {
		t.Fatal(err)
	}
	if !p.Insts[5].Boundary {
		t.Fatalf("expected boundary before in-loop store:\n%s", p)
	}
	if err := VerifyIdempotence(p, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRegionSizes(t *testing.T) {
	p := isa.MustParse("fig2", figure2Src)
	if _, err := Form(p, Options{}); err != nil {
		t.Fatal(err)
	}
	sizes := StaticRegionSizes(p)
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			t.Fatalf("non-positive region size: %v", sizes)
		}
		total += s
	}
	if total != p.Len() {
		t.Fatalf("region sizes sum to %d, want %d", total, p.Len())
	}
	if got := len(p.RegionStarts()); got != len(sizes) {
		t.Fatalf("starts %d != sizes %d", got, len(sizes))
	}
}

// Property: removing any boundary that Form inserted either leaves the
// program clean (the boundary was redundant) or the verifier catches the
// re-exposed anti-dependence. The verifier and Form must agree.
func TestVerifierCatchesBoundaryRemoval(t *testing.T) {
	srcs := []string{figure2Src, figure10Src}
	rng := rand.New(rand.NewSource(42))
	for _, src := range srcs {
		p := isa.MustParse("prop", src)
		if _, err := Form(p, Options{}); err != nil {
			t.Fatal(err)
		}
		var bIdx []int
		for i := range p.Insts {
			if p.Insts[i].Boundary {
				bIdx = append(bIdx, i)
			}
		}
		for trial := 0; trial < 20 && len(bIdx) > 0; trial++ {
			q := p.Clone()
			rm := bIdx[rng.Intn(len(bIdx))]
			q.Insts[rm].Boundary = false
			err := VerifyIdempotence(q, nil, true)
			// Re-forming must restore a verifiable state either way.
			if err == nil {
				continue // boundary was redundant for idempotence (e.g. sync follower)
			}
			if _, ferr := Form(q, Options{}); ferr != nil {
				t.Fatal(ferr)
			}
			if verr := VerifyIdempotence(q, nil, true); verr != nil {
				t.Fatalf("re-Form did not restore idempotence: %v", verr)
			}
		}
	}
}

// TestFormIsIdempotent: running Form twice yields identical boundaries —
// the fixpoint is stable.
func TestFormIsIdempotent(t *testing.T) {
	for _, src := range []string{figure2Src, figure10Src} {
		for _, opt := range []Options{{}, {ExtendAcrossBarriers: true}} {
			p := isa.MustParse("idem", src)
			if _, err := Form(p, opt); err != nil {
				t.Fatal(err)
			}
			first := make([]bool, p.Len())
			for i := range p.Insts {
				first[i] = p.Insts[i].Boundary
			}
			if _, err := Form(p, opt); err != nil {
				t.Fatal(err)
			}
			for i := range p.Insts {
				if p.Insts[i].Boundary != first[i] {
					t.Fatalf("opt %+v: boundary at %d changed on re-Form", opt, i)
				}
			}
		}
	}
}
