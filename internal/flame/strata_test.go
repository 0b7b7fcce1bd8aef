package flame

import (
	"reflect"
	"testing"

	"flame/internal/isa"
)

// strataSrc covers every opcode class the builder buckets by: ALU
// arithmetic, FP math, a predicate compare, loads, a global store, and
// control flow (never corruptible).
const strataSrc = `
    mov r0, %tid.x
    ld.param r1, [0]
    shl r2, r0, 2
    add r3, r1, r2
    ld.global r4, [r3]
    fmul r5, r4, 2.0f
    setp.lt p0, r0, 4
    st.global [r3], r5
    exit
`

func buildTestStrata(t *testing.T, span int64, events []struct {
	cyc int64
	pc  int
}) *StrataMap {
	t.Helper()
	p := isa.MustParse("k", strataSrc)
	b := NewStrataBuilder(NewSites(p), "k", [][2]int{{0, 5}, {5, 8}}, DataSlice, span)
	for _, e := range events {
		b.Observe(e.cyc, e.pc, 1)
	}
	return b.Finish()
}

func TestStrataBuilderPartition(t *testing.T) {
	// Golden schedule: pc 0 (mov, ALU, excluded? mov r0 from tid — check
	// below), pc 4 (ld.global → mem), pc 5 (fmul → fp), pc 6 (setp →
	// pred, control slice → not corruptible under DataSlice), pc 7
	// (st.global → store), pc 8 (exit → never corruptible).
	events := []struct {
		cyc int64
		pc  int
	}{
		{2, 4},  // ld.global r4: data load, corruptible — owns arms 0..2
		{5, 5},  // fmul r5: corruptible — owns arms 3..5
		{5, 6},  // setp p0: same cycle; control slice anyway
		{7, 7},  // st.global: corruptible — owns arms 6..7
		{9, 8},  // exit: not corruptible
		{11, 4}, // ld.global again (second warp) — owns arms 8..11
	}
	m := buildTestStrata(t, 20, events)
	if m.Span != 20 {
		t.Fatalf("span %d", m.Span)
	}
	// Arms 12..19 fall past the last corruptible event.
	if m.NoInjectionSites != 8 {
		t.Fatalf("no-injection tail %d, want 8", m.NoInjectionSites)
	}
	if m.InjectableSites() != 12 {
		t.Fatalf("injectable %d, want 12", m.InjectableSites())
	}
	type want struct {
		key   string
		sites int64
	}
	wants := []want{
		{"k/s0/mem", 7},   // 0..2 and 8..11
		{"k/s1/fp", 3},    // 3..5
		{"k/s1/store", 2}, // 6..7
	}
	if len(m.Strata) != len(wants) {
		t.Fatalf("strata: %+v", m.Strata)
	}
	total := int64(0)
	for i, w := range wants {
		s := &m.Strata[i]
		if s.Key() != w.key || s.Sites != w.sites {
			t.Fatalf("stratum %d: %s sites=%d, want %s sites=%d", i, s.Key(), s.Sites, w.key, w.sites)
		}
		total += s.Sites
	}
	if total != m.InjectableSites() {
		t.Fatalf("site counts %d don't cover injectable space %d", total, m.InjectableSites())
	}
}

// Every arm cycle in [0, span) must be owned by exactly one stratum or
// the no-injection tail, and ArmAt must enumerate each stratum's arm
// cycles bijectively.
func TestStrataExactCover(t *testing.T) {
	events := []struct {
		cyc int64
		pc  int
	}{
		{0, 1}, {0, 4}, {3, 5}, {3, 5}, {4, 7}, {8, 4}, {30, 5},
	}
	const span = 25 // clamps the cyc-30 event's interval at span-1
	m := buildTestStrata(t, span, events)
	owned := make(map[int64]string, span)
	for i := range m.Strata {
		s := &m.Strata[i]
		for r := int64(0); r < s.Sites; r++ {
			arm := s.ArmAt(r)
			if arm < 0 || arm >= span {
				t.Fatalf("%s: arm %d out of range", s.Key(), arm)
			}
			if prev, dup := owned[arm]; dup {
				t.Fatalf("arm %d owned by both %s and %s", arm, prev, s.Key())
			}
			owned[arm] = s.Key()
		}
	}
	if int64(len(owned))+m.NoInjectionSites != span {
		t.Fatalf("%d owned + %d tail != span %d", len(owned), m.NoInjectionSites, span)
	}
	// The tail is the topmost arm cycles: nothing above the largest
	// owned arm may be owned.
	for arm := span - m.NoInjectionSites; arm < span; arm++ {
		if s, ok := owned[arm]; ok {
			t.Fatalf("tail arm %d owned by %s", arm, s)
		}
	}
}

// SetSiteLabels splits a (section, class) group by label, appends the
// label to every key, and keeps the partition exact: label-split strata
// cover the same arm cycles the unlabeled enumeration owned.
func TestStrataBuilderSiteLabels(t *testing.T) {
	p := isa.MustParse("k", strataSrc)
	events := []struct {
		cyc int64
		pc  int
	}{
		{2, 4},  // ld.global r4 → mem
		{5, 5},  // fmul r5 → fp
		{7, 7},  // st.global → store
		{11, 4}, // ld.global again → mem, different label below
	}
	labels := make([]string, len(p.Insts))
	labels[4] = "store" // the load feeds the store chain
	labels[5] = "short"
	labels[7] = "store"
	build := func(labeled bool) *StrataMap {
		b := NewStrataBuilder(NewSites(p), "k", [][2]int{{0, 5}, {5, 8}}, DataSlice, 20)
		if labeled {
			b.SetSiteLabels(labels)
		}
		for _, e := range events {
			b.Observe(e.cyc, e.pc, 1)
		}
		return b.Finish()
	}
	plain := build(false)
	m := build(true)
	if m.Span != plain.Span || m.NoInjectionSites != plain.NoInjectionSites {
		t.Fatalf("labels changed the covered space: %+v vs %+v", m, plain)
	}
	wants := map[string]int64{
		"k/s0/mem/store":   7, // arms 0..2 and 8..11
		"k/s1/fp/short":    3, // arms 3..5
		"k/s1/store/store": 2, // arms 6..7
	}
	total := int64(0)
	for i := range m.Strata {
		s := &m.Strata[i]
		if w, ok := wants[s.Key()]; !ok || s.Sites != w {
			t.Fatalf("stratum %s sites=%d, want %v", s.Key(), s.Sites, wants)
		}
		total += s.Sites
	}
	if len(m.Strata) != len(wants) || total != m.InjectableSites() {
		t.Fatalf("labeled strata don't cover the injectable space: %+v", m.Strata)
	}
	// A label length mismatch is a caller bug and must panic loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("short label slice accepted")
		}
	}()
	NewStrataBuilder(NewSites(p), "k", nil, DataSlice, 20).SetSiteLabels([]string{"x"})
}

// An enumeration fed with an open span and sealed by FinishSpan must
// equal one built with the span from the start, for spans below, at,
// inside and past the observed events: the first event past the span
// owns up to span-1, and strata owning only later arms vanish.
func TestStrataFinishSpanMatchesBoundedBuild(t *testing.T) {
	p := isa.MustParse("k", strataSrc)
	sections := [][2]int{{0, 5}, {5, 8}}
	events := []struct {
		cyc int64
		pc  int
	}{
		{0, 1}, {2, 4}, {5, 5}, {5, 6}, {7, 7}, {9, 8}, {11, 4}, {14, 7}, {20, 5}, {21, 4}, {30, 7},
	}
	for _, labels := range []bool{false, true} {
		for span := int64(1); span <= 40; span++ {
			bounded := NewStrataBuilder(NewSites(p), "k", sections, DataSlice, span)
			open := NewStrataBuilder(NewSites(p), "k", sections, DataSlice, OpenSpan)
			if labels {
				l := make([]string, len(p.Insts))
				for i := range l {
					l[i] = []string{"dead", "short", "long"}[i%3]
				}
				bounded.SetSiteLabels(l)
				open.SetSiteLabels(l)
			}
			for _, e := range events {
				bounded.Observe(e.cyc, e.pc, 1)
				open.Observe(e.cyc, e.pc, 1)
			}
			want, got := bounded.Finish(), open.FinishSpan(span)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("labels=%v span %d:\nFinishSpan %+v\nbounded    %+v", labels, span, got, want)
			}
		}
	}
}
