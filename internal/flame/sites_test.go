package flame

import (
	"math/rand"
	"testing"

	"flame/internal/isa"
)

// TestSitesKinds pins the strike model of strataSrc instruction by
// instruction: the address chain (r0..r3) is a site only under
// FullSite, and excluded there; the loaded value and the product are
// data-slice register sites that reach the store; the predicate
// compare and exit are never sites; the global store's data always is.
// A SwapCodes replica is never a site.
func TestSitesKinds(t *testing.T) {
	p := isa.MustParse("k", strataSrc)
	reg := func(r isa.Reg, excluded bool) Site {
		return Site{Kind: RegisterSite, Reg: r, Excluded: excluded, Reaches: true}
	}
	none := Site{Reg: isa.NoReg}
	store := Site{Kind: StoreSite, Reg: isa.NoReg}
	want := []struct{ data, full Site }{
		{none, reg(0, true)},
		{none, reg(1, true)},
		{none, reg(2, true)},
		{none, reg(3, true)},
		{reg(4, false), reg(4, false)},
		{reg(5, false), reg(5, false)},
		{none, none},
		{store, store},
		{none, none},
	}
	s := NewSites(p)
	for pc, w := range want {
		if got := s.At(pc, DataSlice); got != w.data {
			t.Errorf("pc %d (%s): DataSlice site %+v, want %+v", pc, p.Insts[pc].String(), got, w.data)
		}
		if got := s.At(pc, FullSite); got != w.full {
			t.Errorf("pc %d (%s): FullSite site %+v, want %+v", pc, p.Insts[pc].String(), got, w.full)
		}
	}

	p.Insts[5].Origin = isa.OrigDup
	s = NewSites(p)
	for _, m := range []FaultModel{DataSlice, FullSite} {
		if got := s.At(5, m); got != none {
			t.Errorf("%s: replica site %+v, want none", m, got)
		}
	}
}

// Fire draws nothing at an event without strike lanes, and both the
// lane and the bit at an event without a site: the strike stays armed
// either way, but only the second advances the generator.
func TestFireDrawOrder(t *testing.T) {
	s := NewSites(isa.MustParse("k", strataSrc))
	fired, ref := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	if _, ok := s.Fire(fired, DataSlice, 4, 0); ok {
		t.Fatal("fired without a strike lane")
	}
	if _, ok := s.Fire(fired, DataSlice, 6, 0b1011); ok {
		t.Fatal("fired on setp")
	}
	ref.Intn(3)
	ref.Intn(32)
	h, ok := s.Fire(fired, DataSlice, 5, 0b1011)
	lanes := []int{0, 1, 3}
	if want := lanes[ref.Intn(3)]; !ok || h.Lane != want || h.PC != 5 || h.Reg != 5 {
		t.Fatalf("hit %+v ok=%v, want lane %d of r5 at pc 5", h, ok, want)
	}
	if want := uint32(1) << uint(ref.Intn(32)); h.Bit != want {
		t.Fatalf("bit %#x, want %#x", h.Bit, want)
	}
	if got, want := SensorDelay(fired, 20), 1+int64(ref.Intn(20)); got != want {
		t.Fatalf("delay %d, want %d", got, want)
	}
	if SensorDelay(fired, 0) != 0 || fired.Int63() != ref.Int63() {
		t.Fatal("a zero delay bound must not draw")
	}
}

// An event without a strike lane owns no arm cycles, whatever its site.
func TestArmWalkSkipsLanelessEvents(t *testing.T) {
	w := NewSites(isa.MustParse("k", strataSrc)).Walk(DataSlice, 20)
	if _, _, _, ok := w.Own(3, 4, 0); ok {
		t.Fatal("a laneless event owned arm cycles")
	}
	if _, lo, hi, ok := w.Own(5, 4, 1); !ok || lo != 0 || hi != 5 {
		t.Fatalf("owned [%d, %d] ok=%v, want [0, 5]", lo, hi, ok)
	}
	if w.NoInjection() != 14 {
		t.Fatalf("no-injection tail %d, want 14", w.NoInjection())
	}
}
