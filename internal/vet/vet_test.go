package vet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/isa"
)

// has reports whether the report contains a finding from the check at
// the severity.
func has(rep *Report, check string, sev Severity) bool {
	for _, d := range rep.Diags {
		if d.Check == check && d.Severity == sev {
			return true
		}
	}
	return false
}

func mustParse(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// counterLoop increments a global word four times with a checkpointable
// loop counter — the minimal kernel that exercises boundary formation,
// checkpoint saves, and rename splits.
const counterLoop = `
    ld.param r2, [0]
    mov r0, 0
L2:
    ld.global r1, [r2]
    add r1, r1, 1
    st.global [r2], r1
    add r0, r0, 1
    setp.lt p0, r0, 4
    @p0 bra L2
    exit
`

// deleteInst removes the instruction at index at, retargeting branches
// that jump past it (a branch to at itself lands on the successor).
func deleteInst(t *testing.T, p *isa.Program, at int) {
	t.Helper()
	for i := range p.Insts {
		if p.Insts[i].Op == isa.OpBra && p.Insts[i].Target > at {
			p.Insts[i].Target--
		}
	}
	p.Insts = append(p.Insts[:at], p.Insts[at+1:]...)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarksClean is the acceptance gate in miniature: a slice of
// the benchmark suite must produce zero error findings under every
// scheme (the CI job runs the full suite).
func TestBenchmarksClean(t *testing.T) {
	for _, name := range []string{"BO", "LUD", "WT", "BS"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.Schemes() {
			comp, err := core.Compile(b.Prog(), core.Options{Scheme: s, WCDL: 20, ExtendRegions: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			rep := Compiled(comp, Config{})
			if n := rep.Errors(); n != 0 {
				var buf bytes.Buffer
				rep.WriteText(&buf, Error)
				t.Fatalf("%s/%s: %d error finding(s):\n%s", name, s, n, buf.String())
			}
		}
	}
}

// TestSeededCheckpointBug deletes the in-loop checkpoint save of the
// loop counter; both the static checkpoint-complete check and the
// dynamic oracle must catch the stale-restore hazard.
func TestSeededCheckpointBug(t *testing.T) {
	p := mustParse(t, counterLoop)
	comp, err := core.Compile(p, core.Options{Scheme: core.Checkpointing})
	if err != nil {
		t.Fatal(err)
	}

	// The loop counter is r0: its second checkpoint save (inside the
	// loop) is the one whose deletion recovery cannot survive.
	victim := -1
	for i := range comp.Prog.Insts {
		in := &comp.Prog.Insts[i]
		if in.Origin == isa.OrigCheckpoint && in.Src[1].Kind == isa.OperReg && in.Src[1].Reg == 0 {
			victim = i // keep the last (in-loop) save
		}
	}
	if victim < 0 {
		t.Fatal("no checkpoint save of r0 found")
	}

	clean := Compiled(comp, Config{})
	if n := clean.Errors(); n != 0 {
		t.Fatalf("clean program has %d error(s)", n)
	}

	deleteInst(t, comp.Prog, victim)

	rep := Compiled(comp, Config{})
	if !has(rep, "checkpoint-complete", Error) {
		var buf bytes.Buffer
		rep.WriteText(&buf, Info)
		t.Fatalf("static pass missed the deleted checkpoint save:\n%s", buf.String())
	}

	orep := NewReport(Config{})
	gmem := make([]uint32, 4)
	if _, ok := Oracle(TargetOf(comp), isa.Dim3{X: 1}, isa.Dim3{X: 1}, []uint32{0}, gmem, Config{}, orep); ok {
		t.Fatal("oracle accepted the broken checkpointing")
	}
	if !has(orep, "oracle", Error) {
		t.Fatal("oracle aborted without an error finding")
	}
}

// TestSeededRenameBug clears the region boundary the rename pass placed
// on a read-modify-write repair copy; the residual-war check and the
// oracle must both reject the program.
func TestSeededRenameBug(t *testing.T) {
	p := mustParse(t, counterLoop)
	comp, err := core.Compile(p, core.Options{Scheme: core.Renaming})
	if err != nil {
		t.Fatal(err)
	}

	victim := -1
	for i := range comp.Prog.Insts {
		in := &comp.Prog.Insts[i]
		if in.Origin == isa.OrigRename && in.Op == isa.OpMov && in.Boundary {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("rename pass placed no boundary copies on this kernel")
	}

	clean := Compiled(comp, Config{})
	if n := clean.Errors(); n != 0 {
		t.Fatalf("clean program has %d error(s)", n)
	}

	comp.Prog.Insts[victim].Boundary = false
	if err := comp.Prog.Finalize(); err != nil {
		t.Fatal(err)
	}

	rep := Compiled(comp, Config{})
	if !has(rep, "residual-war", Error) {
		var buf bytes.Buffer
		rep.WriteText(&buf, Info)
		t.Fatalf("static pass missed the cleared rename boundary:\n%s", buf.String())
	}

	orep := NewReport(Config{})
	gmem := make([]uint32, 4)
	if _, ok := Oracle(TargetOf(comp), isa.Dim3{X: 1}, isa.Dim3{X: 1}, []uint32{0}, gmem, Config{}, orep); ok {
		t.Fatal("oracle accepted the broken renaming")
	}
	if !has(orep, "oracle", Error) {
		t.Fatal("oracle aborted without an error finding")
	}
}

func TestUseBeforeDef(t *testing.T) {
	rep := File(mustParse(t, `
    add r1, r0, 1
    st.global [r1], r0
    exit
`), Config{})
	if !has(rep, "use-before-def", Error) {
		t.Fatalf("missed read of never-defined r0: %+v", rep.Diags)
	}

	// Defined on one path only: a warning, not an error.
	rep = File(mustParse(t, `
    mov r0, %tid.x
    setp.lt p0, r0, 1
    @p0 bra L4
    mov r1, 7
L4:
    st.global [r0], r1
    exit
`), Config{})
	if !has(rep, "use-before-def", Warning) {
		t.Fatalf("missed may-read of partially defined r1: %+v", rep.Diags)
	}
	if has(rep, "use-before-def", Error) {
		t.Fatalf("partially defined r1 escalated to error: %+v", rep.Diags)
	}
}

func TestUnreachableAndBounds(t *testing.T) {
	rep := File(mustParse(t, `
.shared 16
    mov r0, %tid.x
    bra L4
    add r0, r0, 1
    add r0, r0, 2
L4:
    ld.shared r1, [r0+32]
    st.global [r0], r1
    exit
`), Config{})
	if !has(rep, "unreachable-code", Warning) {
		t.Fatalf("missed unreachable block: %+v", rep.Diags)
	}
	// r0 is thread-variant, so [r0+32] must NOT be flagged statically.
	if has(rep, "mem-bounds", Error) {
		t.Fatalf("flagged dynamic shared address: %+v", rep.Diags)
	}

	rep = File(mustParse(t, `
.shared 16
    mov r0, 0
    ld.shared r1, [r0+32]
    st.global [r0], r1
    exit
`), Config{})
	if !has(rep, "mem-bounds", Error) {
		t.Fatalf("missed constant out-of-bounds shared load: %+v", rep.Diags)
	}
}

func TestBarrierDivergence(t *testing.T) {
	rep := File(mustParse(t, `
    mov r0, %tid.x
    setp.lt p0, r0, 16
    @!p0 bra L5
    bar.sync
    st.global [r0], r0
L5:
    exit
`), Config{})
	if !has(rep, "barrier-divergence", Error) {
		t.Fatalf("missed barrier under thread-variant branch: %+v", rep.Diags)
	}

	// Uniform branch (block dimension): no finding.
	rep = File(mustParse(t, `
    mov r0, %ntid.x
    setp.lt p0, r0, 16
    @!p0 bra L5
    bar.sync
    mov r1, 1
    st.global [r1], r1
L5:
    exit
`), Config{})
	if has(rep, "barrier-divergence", Error) || has(rep, "barrier-divergence", Warning) {
		t.Fatalf("flagged barrier under uniform branch: %+v", rep.Diags)
	}
}

func TestConfigFiltering(t *testing.T) {
	src := `
    add r1, r0, 1
    st.global [r1], r0
    exit
`
	rep := File(mustParse(t, src), Config{Disable: []string{"use-before-def"}})
	if has(rep, "use-before-def", Error) {
		t.Fatal("disabled check still reported")
	}

	if _, err := ParseCheckList("use-before-def,oracle"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCheckList("no-such-check"); err == nil {
		t.Fatal("unknown check accepted")
	}
	if l, err := ParseCheckList("all"); err != nil || l != nil {
		t.Fatalf("\"all\" should mean defaults, got %v, %v", l, err)
	}
}

func TestReportJSON(t *testing.T) {
	rep := NewReport(Config{})
	rep.Add(Diagnostic{Check: "structure", Severity: Error, Kernel: "k", Inst: 3, Region: -1, Section: -1, Msg: "boom"})
	rep.Add(Diagnostic{Check: "wcdl-budget", Severity: Warning, Kernel: "k", Inst: -1, Region: 0, Section: -1, Msg: "long"})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Errors   int            `json:"errors"`
		Warnings int            `json:"warnings"`
		ByCheck  map[string]int `json:"by_check"`
		Findings []Diagnostic   `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Errors != 1 || got.Warnings != 1 || len(got.Findings) != 2 {
		t.Fatalf("bad summary: %+v", got)
	}
	if got.ByCheck["structure"] != 1 {
		t.Fatalf("bad by_check: %+v", got.ByCheck)
	}
	if !strings.Contains(buf.String(), `"severity": "error"`) {
		t.Fatalf("severity not marshalled as a name:\n%s", buf.String())
	}
}

func TestChecksRegistry(t *testing.T) {
	cs := Checks()
	if len(cs) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if c.Name == "" || c.Doc == "" {
			t.Fatalf("incomplete registry entry: %+v", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate check %q", c.Name)
		}
		seen[c.Name] = true
	}
	for _, want := range []string{"structure", "oracle", "checkpoint-complete", "residual-war", "barrier-divergence"} {
		if !seen[want] {
			t.Fatalf("registry lacks %q", want)
		}
	}
}
