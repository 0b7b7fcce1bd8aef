package gpu

import (
	"bytes"
	"strings"
	"testing"

	"flame/internal/isa"
)

// TestCombineHooksOnAdvance pins the clamping contract of the combined
// fast-forward bound: the tighter constituent wins, a constituent
// answering `from` vetoes the skip outright (short-circuiting the other
// side), out-of-range answers are clamped, and an OnCycle consumer
// without an OnAdvance contract degrades the pair to no-skip.
func TestCombineHooksOnAdvance(t *testing.T) {
	bound := func(v int64) func(*Device, int64, int64) int64 {
		return func(_ *Device, from, to int64) int64 { return v }
	}
	passthrough := func(_ *Device, from, to int64) int64 { return to }

	t.Run("tighter-bound-wins", func(t *testing.T) {
		for _, tc := range []struct {
			a, b, want int64
		}{
			{50, 70, 50},
			{70, 50, 50},
			{100, 100, 100},
		} {
			h := CombineHooks(&Hooks{OnAdvance: bound(tc.a)}, &Hooks{OnAdvance: bound(tc.b)})
			if got := h.onAdvance(nil, 0, 100); got != tc.want {
				t.Errorf("a=%d b=%d: got %d, want %d", tc.a, tc.b, got, tc.want)
			}
		}
	})

	t.Run("from-vetoes-and-short-circuits", func(t *testing.T) {
		bCalled := false
		h := CombineHooks(
			&Hooks{OnAdvance: bound(0)},
			&Hooks{OnAdvance: func(_ *Device, from, to int64) int64 {
				bCalled = true
				return to
			}})
		if got := h.onAdvance(nil, 0, 100); got != 0 {
			t.Errorf("got %d, want veto at 0", got)
		}
		if bCalled {
			t.Error("b's OnAdvance consulted after a vetoed the skip")
		}
	})

	t.Run("clamped-into-range", func(t *testing.T) {
		// An answer beyond `to` grants the whole span; below `from` vetoes.
		h := CombineHooks(&Hooks{OnAdvance: bound(999)}, &Hooks{OnAdvance: passthrough})
		if got := h.onAdvance(nil, 10, 100); got != 100 {
			t.Errorf("over-range answer: got %d, want 100", got)
		}
		h = CombineHooks(&Hooks{OnAdvance: bound(-5)}, &Hooks{OnAdvance: passthrough})
		if got := h.onAdvance(nil, 10, 100); got != 10 {
			t.Errorf("under-range answer: got %d, want 10", got)
		}
	})

	t.Run("nil-side-passthrough", func(t *testing.T) {
		h := &Hooks{OnAdvance: bound(42)}
		if got := CombineHooks(nil, h); got != h {
			t.Error("CombineHooks(nil, h) should return h itself")
		}
		if got := CombineHooks(h, nil); got != h {
			t.Error("CombineHooks(h, nil) should return h itself")
		}
	})

	t.Run("oncycle-without-onadvance-disables", func(t *testing.T) {
		h := CombineHooks(
			&Hooks{OnAdvance: passthrough},
			&Hooks{OnCycle: func(*Device) {}})
		if got := h.onAdvance(nil, 10, 100); got != 10 {
			t.Errorf("got %d, want 10 (no-skip for contract-less OnCycle)", got)
		}
	})

	t.Run("slots-tee", func(t *testing.T) {
		rec := func(dst *int64) SlotSink { return sinkFunc(func(span int64) { *dst += span }) }
		var a, b int64
		h := CombineHooks(&Hooks{Slots: rec(&a)}, &Hooks{Slots: rec(&b)})
		h.Slots.CreditSlot(0, 0, 0, SlotIssued, 5, 3)
		if a != 3 || b != 3 {
			t.Errorf("tee did not fan out: a=%d b=%d", a, b)
		}
	})
}

// TestCombineHooksIssueAt checks that a combined hook set declares the
// union of its constituents' BeforeIssue instructions: a constituent
// with BeforeIssue and nil IssueAt covers every instruction, one
// without BeforeIssue covers none, whatever its IssueAt says.
func TestCombineHooksIssueAt(t *testing.T) {
	permit := func(*Device, *SM, *Warp) bool { return true }
	exitOnly := func(in *isa.Inst) bool { return in.Op == isa.OpExit }
	boundaryOnly := func(in *isa.Inst) bool { return in.Boundary }
	insts := map[string]*isa.Inst{
		"add":      {Op: isa.OpAdd},
		"exit":     {Op: isa.OpExit},
		"boundary": {Op: isa.OpAdd, Boundary: true},
	}
	for _, tc := range []struct {
		name string
		a, b *Hooks
		want string // the instructions covered, in sorted order
	}{
		{"declared+undeclared", &Hooks{BeforeIssue: permit, IssueAt: exitOnly},
			&Hooks{BeforeIssue: permit}, "add boundary exit"},
		{"undeclared+declared", &Hooks{BeforeIssue: permit},
			&Hooks{BeforeIssue: permit, IssueAt: exitOnly}, "add boundary exit"},
		{"union", &Hooks{BeforeIssue: permit, IssueAt: exitOnly},
			&Hooks{BeforeIssue: permit, IssueAt: boundaryOnly}, "boundary exit"},
		{"observer", &Hooks{BeforeIssue: permit, IssueAt: exitOnly},
			&Hooks{OnExecuted: func(*Device, *SM, *Warp, int) {}}, "exit"},
		{"IssueAt without BeforeIssue", &Hooks{IssueAt: exitOnly},
			&Hooks{OnCycle: func(*Device) {}}, ""},
	} {
		h := CombineHooks(tc.a, tc.b)
		var got []string
		for _, name := range []string{"add", "boundary", "exit"} {
			if h.issueAt(insts[name]) {
				got = append(got, name)
			}
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s: covers %q, want %q", tc.name, s, tc.want)
		}
		if (h.BeforeIssue != nil) != (tc.want != "") {
			t.Errorf("%s: combined BeforeIssue set = %v", tc.name, h.BeforeIssue != nil)
		}
	}
}

// sinkFunc adapts a closure to SlotSink for tests.
type sinkFunc func(span int64)

func (f sinkFunc) CreditSlot(smID, sched, warp int, r SlotReason, cycle, span int64) { f(span) }

// TestWindowedTracerSkipIdentity asserts the Tracer satellite: a tracer
// bounded to a cycle window emits a byte-identical trace with skipping
// on and off, and attaching it no longer disables skipping (its
// OnAdvance grants spans, so an OnCycle-free tracer run still
// fast-forwards stalled stretches).
func TestWindowedTracerSkipIdentity(t *testing.T) {
	const src = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    ld.global r7, [r6]
	    add r8, r7, 7
	    st.global [r6], r8
	    exit
	`
	prog := isa.MustParse("windowed", src)
	setup := func(mem []uint32) {
		for i := 0; i < 2048; i++ {
			mem[i] = uint32(i)
		}
	}

	run := func(noSkip bool) (string, Stats, int64) {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.FromCycle, tr.ToCycle = 40, 400
		var onCycleCalls int64
		hooks := CombineHooks(tr.Hooks(), &Hooks{
			OnCycle:   func(*Device) { onCycleCalls++ },
			OnAdvance: func(_ *Device, from, to int64) int64 { return to },
		})
		st, _ := runForStats(t, noSkip, prog, isa.Dim3{X: 8}, isa.Dim3{X: 64},
			[]uint32{0}, setup, hooks)
		if tr.Events == 0 {
			t.Fatal("windowed tracer saw no events; widen the window")
		}
		return buf.String(), st, onCycleCalls
	}

	naiveTrace, naiveStats, naiveCalls := run(true)
	fastTrace, fastStats, fastCalls := run(false)
	if naiveStats != fastStats {
		t.Errorf("stats diverge:\n naive: %+v\n  fast: %+v", naiveStats, fastStats)
	}
	if naiveTrace != fastTrace {
		t.Errorf("windowed traces differ:\n naive:\n%s\n fast:\n%s", naiveTrace, fastTrace)
	}
	if fastCalls >= naiveCalls {
		t.Errorf("skipping disabled with tracer attached: %d OnCycle calls with skip, %d without",
			fastCalls, naiveCalls)
	}
}
