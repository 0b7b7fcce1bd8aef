package gpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flame/internal/isa"
)

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

// TestWindowedTracerStaysInWindow: a tracer bounded to a cycle window
// emits lines only for instructions issued inside [FromCycle, ToCycle],
// one line per event it counts.
func TestWindowedTracerStaysInWindow(t *testing.T) {
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
	d, err := NewDevice(smallConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		d.Mem.Words()[i] = uint32(i)
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.FromCycle, tr.ToCycle = 40, 400
	l := &Launch{Prog: isa.MustParse("windowed", src), Grid: isa.Dim3{X: 8}, Block: isa.Dim3{X: 64},
		Params: []uint32{0}}
	if _, err := d.Run(l, tr.Hooks()); err != nil {
		t.Fatal(err)
	}
	if tr.Events == 0 {
		t.Fatal("windowed tracer saw no events; widen the window")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if int64(len(lines)) != tr.Events {
		t.Fatalf("%d lines for %d events", len(lines), tr.Events)
	}
	for _, line := range lines {
		var cyc int64
		if _, err := fmt.Sscanf(line, "cyc=%d", &cyc); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if cyc < tr.FromCycle || cyc > tr.ToCycle {
			t.Errorf("line outside the window [%d, %d]: %q", tr.FromCycle, tr.ToCycle, line)
		}
	}
}
