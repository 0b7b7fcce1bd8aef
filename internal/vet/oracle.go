package vet

import (
	"fmt"
	"sort"

	"flame/internal/core"
	"flame/internal/isa"
)

// The dynamic idempotence oracle re-executes every committed region and
// diffs architectural state, cross-checking the static verdict. It is a
// serialized functional interpreter (no timing, no warp scheduling):
// blocks run one after another, threads of a block run round-robin
// between barriers, and every value computation matches the simulator's
// semantics (isa.EvalALU/EvalCmp/EvalAtom, the gpu special-register
// geometry, zero-initialized registers).
//
// Protocol, mirroring flame.Controller's commit rules:
//
//   - A thread commits when it reaches a region boundary or an exit that
//     is not strictly inside an extended section (mid-section boundaries
//     cannot advance the recovery PC).
//   - Before committing, the finished region is re-executed from the
//     thread's previous commit point and the architectural state at the
//     commit point is compared between the two executions: every general
//     register, every predicate, and the final value stored to each
//     memory word during the region. Hardware recovery restores only the
//     PC (plus committed checkpoint slots under checkpointing schemes),
//     so the replay starts from the *current* register state — exactly
//     the state a mid-region rollback would see.
//   - Regions that executed an atomic skip replay: the controller's
//     undo log reverts their memory effects instead (re-executing an
//     atomic is never idempotent).
//   - Regions that executed an isolated barrier are the barrier alone
//     (sync-boundary isolation) and have no state to verify.
//   - Regions that crossed an extended section are replayed
//     collectively: every thread of the block rolls back to its commit
//     point and the whole section re-runs, barriers included, before
//     states are compared — the paper's per-block collective recovery.
//
// Any mismatch is reported with check "oracle" at error severity and the
// launch is abandoned (a non-idempotent replay corrupts memory, so later
// results would be noise).

// storeKey identifies one word written during a region, in the writing
// thread's address-space view.
type storeKey struct {
	space isa.Space
	addr  uint32
}

// orThread is one simulated thread.
type orThread struct {
	id     int // thread index within the block
	pc     int
	regs   []uint32
	preds  uint8
	exited bool
	atBar  bool

	// Region tracking since the last commit.
	commitPC  int
	steps     int
	sawAtom   bool
	sawBar    bool
	sawSecBar bool
	storeLog  map[storeKey]uint32

	// Checkpoint mirror of flame.Controller's pending/committed maps.
	pendCkpt map[isa.Reg]uint32
	commCkpt map[isa.Reg]uint32

	// Pending collective verification (section crossings).
	pending    bool
	outPC      int
	savedRegs  []uint32
	savedPreds uint8
}

// execMode distinguishes first execution from the two replay flavours.
type execMode uint8

const (
	modeRun        execMode = iota
	modeSoloReplay          // per-thread region replay: barriers/atomics are divergence
	modeCollective          // whole-block section replay: barriers allowed
)

// orMachine interprets one launch of a compiled program.
type orMachine struct {
	t      *Target
	cfg    Config
	rep    *Report
	gmem   []uint32
	params []uint32
	grid   isa.Dim3
	block  isa.Dim3
	gb     int // current block index
	budget int // remaining dynamic instructions for the launch
	failed bool

	// Verification counters (exposed through OracleStats).
	commits     int // committed regions
	replays     int // per-thread region replays diffed
	collectives int // collective section replays diffed
}

const oracleWarpSize = 32 // gpu.DefaultConfig warp width, for %laneid/%warpid

func (m *orMachine) add(sev Severity, inst int, msg string) {
	rc := newRegionCtx(m.t.Prog, m.t.Sections)
	d := Diagnostic{
		Check: "oracle", Severity: sev, Kernel: m.t.Prog.Name,
		Scheme: m.t.SchemeName, Inst: inst, Region: -1, Section: -1, Msg: msg,
	}
	if inst >= 0 && inst < len(m.t.Prog.Insts) {
		d.Line = m.t.Prog.Insts[inst].Line
		d.Asm = m.t.Prog.Insts[inst].String()
		d.Region = rc.regionOf(inst)
		d.Section = rc.sectionOf(inst)
	}
	m.rep.Add(d)
	if sev == Error {
		m.failed = true
	}
}

// commitEligible mirrors flame's verifiesAt + mid-section skip.
func (m *orMachine) commitEligible(pc int) bool {
	in := &m.t.Prog.Insts[pc]
	if !in.Boundary && in.Op != isa.OpExit {
		return false
	}
	for _, s := range m.t.Sections {
		if pc > s.Start && pc < s.End {
			return false
		}
	}
	return true
}

func (m *orMachine) inSection(pc int) bool {
	for _, s := range m.t.Sections {
		if s.Contains(pc) {
			return true
		}
	}
	return false
}

func (m *orMachine) special(th *orThread, s isa.Special) uint32 {
	bx, by := max1(m.block.X), max1(m.block.Y)
	gx, gy := max1(m.grid.X), max1(m.grid.Y)
	t, gb := th.id, m.gb
	switch s {
	case isa.SpecTidX:
		return uint32(t % bx)
	case isa.SpecTidY:
		return uint32((t / bx) % by)
	case isa.SpecTidZ:
		return uint32(t / (bx * by))
	case isa.SpecNTidX:
		return uint32(bx)
	case isa.SpecNTidY:
		return uint32(by)
	case isa.SpecNTidZ:
		return uint32(max1(m.block.Z))
	case isa.SpecCtaIDX:
		return uint32(gb % gx)
	case isa.SpecCtaIDY:
		return uint32((gb / gx) % gy)
	case isa.SpecCtaIDZ:
		return uint32(gb / (gx * gy))
	case isa.SpecNCtaIDX:
		return uint32(gx)
	case isa.SpecNCtaIDY:
		return uint32(gy)
	case isa.SpecNCtaIDZ:
		return uint32(max1(m.grid.Z))
	case isa.SpecLaneID:
		return uint32(t % oracleWarpSize)
	case isa.SpecWarpID:
		return uint32(t / oracleWarpSize)
	}
	return 0
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

func (m *orMachine) operand(th *orThread, o isa.Operand) uint32 {
	switch o.Kind {
	case isa.OperReg:
		return th.regs[o.Reg]
	case isa.OperImm:
		return uint32(o.Imm)
	case isa.OperSpecial:
		return m.special(th, o.Spec)
	default:
		return 0
	}
}

func wordAt(mem []uint32, addr uint32) (int, bool) {
	if addr%4 != 0 || int(addr/4) >= len(mem) {
		return 0, false
	}
	return int(addr / 4), true
}

func (m *orMachine) read(th *orThread, shared, local []uint32, space isa.Space, addr uint32, pc int) (uint32, bool) {
	var mem []uint32
	switch space {
	case isa.SpaceGlobal:
		mem = m.gmem
	case isa.SpaceShared:
		mem = shared
	case isa.SpaceLocal:
		mem = local
	case isa.SpaceParam:
		mem = m.params
	}
	w, ok := wordAt(mem, addr)
	if !ok {
		m.add(Error, pc, fmt.Sprintf("oracle load fault: %s address %d (thread %d of block %d)", space, addr, th.id, m.gb))
		return 0, false
	}
	return mem[w], true
}

func (m *orMachine) write(th *orThread, shared, local []uint32, space isa.Space, addr, v uint32, pc int) bool {
	var mem []uint32
	switch space {
	case isa.SpaceGlobal:
		mem = m.gmem
	case isa.SpaceShared:
		mem = shared
	case isa.SpaceLocal:
		mem = local
	default:
		m.add(Error, pc, fmt.Sprintf("oracle store fault: write to %s space", space))
		return false
	}
	w, ok := wordAt(mem, addr)
	if !ok {
		m.add(Error, pc, fmt.Sprintf("oracle store fault: %s address %d (thread %d of block %d)", space, addr, th.id, m.gb))
		return false
	}
	mem[w] = v
	return true
}

// exec interprets one instruction. It returns blocked=true when the
// thread can make no further progress this turn (barrier or exit), and
// ok=false on a fatal diagnostic.
func (m *orMachine) exec(th *orThread, shared, local []uint32, mode execMode) (blocked, ok bool) {
	prog := m.t.Prog
	pc := th.pc
	in := &prog.Insts[pc]
	m.budget--

	active := true
	if in.Guard.Valid() {
		set := th.preds&(1<<in.Guard.Pred) != 0
		active = set != in.Guard.Neg
	}

	next := pc + 1
	switch in.Op {
	case isa.OpNop, isa.OpMembar:
		// Timing-only.

	case isa.OpExit:
		if active {
			th.exited = true
			return true, true
		}

	case isa.OpBra:
		if active {
			next = in.Target
		}

	case isa.OpBar:
		if mode == modeSoloReplay {
			m.add(Error, pc, "oracle replay reached a barrier inside a barrier-free region: control flow diverged on re-execution")
			return true, false
		}
		if mode == modeRun {
			th.sawBar = true
			if m.inSection(pc) {
				th.sawSecBar = true
			}
		}
		th.atBar = true
		return true, true // release advances the PC

	case isa.OpSetp:
		if active {
			a := m.operand(th, in.Src[0])
			b := m.operand(th, in.Src[1])
			if isa.EvalCmp(in.Cmp, a, b) {
				th.preds |= 1 << in.PDst
			} else {
				th.preds &^= 1 << in.PDst
			}
		}

	case isa.OpLd:
		if active {
			addr := m.operand(th, in.Src[0]) + uint32(in.Off)
			v, ok := m.read(th, shared, local, in.Space, addr, pc)
			if !ok {
				return true, false
			}
			th.regs[in.Dst] = v
		}

	case isa.OpSt:
		if active {
			addr := m.operand(th, in.Src[0]) + uint32(in.Off)
			v := m.operand(th, in.Src[1])
			if !m.write(th, shared, local, in.Space, addr, v, pc) {
				return true, false
			}
			th.storeLog[storeKey{in.Space, addr}] = v
			if in.Origin == isa.OrigCheckpoint && in.Src[1].Kind == isa.OperReg {
				th.pendCkpt[in.Src[1].Reg] = v
			}
		}

	case isa.OpAtom:
		if mode == modeSoloReplay {
			m.add(Error, pc, "oracle replay reached an atomic inside an atomic-free region: control flow diverged on re-execution")
			return true, false
		}
		if active {
			addr := m.operand(th, in.Src[0]) + uint32(in.Off)
			old, ok := m.read(th, shared, local, in.Space, addr, pc)
			if !ok {
				return true, false
			}
			nv, ret := isa.EvalAtom(in.AOp, old, m.operand(th, in.Src[1]))
			if !m.write(th, shared, local, in.Space, addr, nv, pc) {
				return true, false
			}
			th.regs[in.Dst] = ret
		}
		th.sawAtom = true

	case isa.OpSelp:
		if active {
			a := m.operand(th, in.Src[0])
			b := m.operand(th, in.Src[1])
			if th.preds&(1<<in.Src[2].Pred) != 0 {
				th.regs[in.Dst] = a
			} else {
				th.regs[in.Dst] = b
			}
		}

	default:
		if active && in.Dst != isa.NoReg {
			a := m.operand(th, in.Src[0])
			b := m.operand(th, in.Src[1])
			c := m.operand(th, in.Src[2])
			th.regs[in.Dst] = isa.EvalALU(in.Op, a, b, c)
		}
	}

	th.pc = next
	return false, true
}

// commit advances the thread's recovery point to pc: pending checkpoint
// values become committed and region tracking resets.
func (th *orThread) commit(pc int) {
	for r, v := range th.pendCkpt {
		th.commCkpt[r] = v
	}
	th.pendCkpt = map[isa.Reg]uint32{}
	th.commitPC = pc
	th.steps = 0
	th.sawAtom = false
	th.sawBar = false
	th.sawSecBar = false
	th.storeLog = map[storeKey]uint32{}
}

// restoreForReplay rewinds the thread to its commit point the way
// hardware recovery would: PC only, plus committed checkpoint slots
// under checkpointing schemes. General registers keep their current
// values — that is the point of idempotence.
func (m *orMachine) restoreForReplay(th *orThread) {
	th.pc = th.commitPC
	if m.t.Checkpointing {
		for r, v := range th.commCkpt {
			if int(r) < len(th.regs) {
				th.regs[r] = v
			}
		}
	}
}

// diffStates compares the replayed architectural state against the saved
// first-execution state, reporting every difference class once.
func (m *orMachine) diffStates(th *orThread, savedRegs []uint32, savedPreds uint8, firstLog map[storeKey]uint32, outPC int) {
	for r := range th.regs {
		if th.regs[r] != savedRegs[r] {
			m.add(Error, outPC, fmt.Sprintf(
				"region [%d,%d) is not idempotent: re-execution left %s=%d, first execution left %d (thread %d of block %d)",
				th.commitPC, outPC, isa.Reg(r), th.regs[r], savedRegs[r], th.id, m.gb))
			return
		}
	}
	if th.preds != savedPreds {
		m.add(Error, outPC, fmt.Sprintf(
			"region [%d,%d) is not idempotent: re-execution left predicates %08b, first execution left %08b (thread %d of block %d)",
			th.commitPC, outPC, th.preds, savedPreds, th.id, m.gb))
		return
	}
	if len(firstLog) != len(th.storeLog) {
		m.add(Error, outPC, fmt.Sprintf(
			"region [%d,%d) is not idempotent: re-execution performed %d distinct stores, first execution %d (thread %d of block %d)",
			th.commitPC, outPC, len(th.storeLog), len(firstLog), th.id, m.gb))
		return
	}
	keys := make([]storeKey, 0, len(firstLog))
	for k := range firstLog {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].space != keys[j].space {
			return keys[i].space < keys[j].space
		}
		return keys[i].addr < keys[j].addr
	})
	for _, k := range keys {
		rv, ok := th.storeLog[k]
		if !ok || rv != firstLog[k] {
			m.add(Error, outPC, fmt.Sprintf(
				"region [%d,%d) is not idempotent: final store to %s[%d] differs on re-execution (%d vs %d, thread %d of block %d)",
				th.commitPC, outPC, k.space, k.addr, rv, firstLog[k], th.id, m.gb))
			return
		}
	}
}

// soloReplay re-executes the thread's finished region and diffs state.
func (m *orMachine) soloReplay(th *orThread, shared, local []uint32, outPC int) bool {
	savedRegs := append([]uint32(nil), th.regs...)
	savedPreds := th.preds
	firstLog := th.storeLog
	th.storeLog = map[storeKey]uint32{}
	m.restoreForReplay(th)

	budget := 4*th.steps + 64
	steps := 0
	for {
		if m.budget <= 0 {
			m.budgetExhausted(th.pc)
			return false
		}
		if steps > 0 && m.commitEligible(th.pc) {
			if th.pc != outPC {
				m.add(Error, th.pc, fmt.Sprintf(
					"region [%d,%d) is not idempotent: re-execution reached boundary %d instead of %d (thread %d of block %d)",
					th.commitPC, outPC, th.pc, outPC, th.id, m.gb))
				return false
			}
			break
		}
		if steps >= budget {
			m.add(Error, th.pc, fmt.Sprintf(
				"region [%d,%d) re-execution exceeded %d steps without reaching its boundary: control flow is not idempotent (thread %d of block %d)",
				th.commitPC, outPC, budget, th.id, m.gb))
			return false
		}
		if _, ok := m.exec(th, shared, local, modeSoloReplay); !ok {
			return false
		}
		steps++
	}

	m.diffStates(th, savedRegs, savedPreds, firstLog, outPC)
	copy(th.regs, savedRegs)
	th.preds = savedPreds
	th.storeLog = firstLog
	th.pc = outPC
	return !m.failed
}

func (m *orMachine) budgetExhausted(pc int) {
	if !m.failed {
		m.rep.Add(Diagnostic{
			Check: "oracle", Severity: Warning, Kernel: m.t.Prog.Name,
			Scheme: m.t.SchemeName, Inst: pc, Region: -1, Section: -1,
			Msg: fmt.Sprintf("oracle step budget (%d) exhausted; dynamic verification is incomplete for this launch", m.cfg.oracleSteps()),
		})
	}
	m.failed = true
}

// runThread executes a thread until it blocks (barrier, exit, pending
// collective verification) or fails.
func (m *orMachine) runThread(th *orThread, shared, local []uint32) bool {
	prog := m.t.Prog
	for {
		if m.budget <= 0 {
			m.budgetExhausted(th.pc)
			return false
		}
		pc := th.pc
		if pc < 0 || pc >= len(prog.Insts) {
			m.add(Error, -1, fmt.Sprintf("oracle: thread %d of block %d ran off the program end (pc %d)", th.id, m.gb, pc))
			return false
		}
		if m.commitEligible(pc) && (th.steps > 0 || pc != th.commitPC) {
			switch {
			case th.sawSecBar && !th.sawAtom:
				// Section crossing: wait for the whole block.
				th.pending = true
				th.outPC = pc
				th.savedRegs = append([]uint32(nil), th.regs...)
				th.savedPreds = th.preds
				return true
			case th.sawAtom || th.sawBar:
				// Atomic regions are undo-log protected; isolated-barrier
				// regions are the barrier alone. Nothing to replay.
				th.commit(pc)
				m.commits++
			default:
				if !m.soloReplay(th, shared, local, pc) {
					return false
				}
				th.commit(pc)
				m.commits++
				m.replays++
			}
		}
		blocked, ok := m.exec(th, shared, local, modeRun)
		if !ok {
			return false
		}
		th.steps++
		if blocked {
			return true
		}
	}
}

// collectiveReplay rolls every pending thread of the block back to its
// commit point and re-runs the crossed section, barriers included, then
// diffs each thread's state (the paper's per-block collective recovery).
func (m *orMachine) collectiveReplay(pend []*orThread, shared []uint32, locals [][]uint32) bool {
	for _, th := range pend {
		if th.sawAtom {
			// Undo-log protected: commit everyone without replay.
			for _, t2 := range pend {
				t2.pending = false
				t2.commit(t2.outPC)
			}
			return true
		}
	}

	firstLogs := make([]map[storeKey]uint32, len(pend))
	budgets := make([]int, len(pend))
	steps := make([]int, len(pend))
	done := make([]bool, len(pend))
	for i, th := range pend {
		firstLogs[i] = th.storeLog
		th.storeLog = map[storeKey]uint32{}
		budgets[i] = 4*th.steps + 64
		m.restoreForReplay(th)
		th.atBar = false
	}

	for {
		progress := false
		remaining := 0
		atBar := 0
		for i, th := range pend {
			if done[i] {
				continue
			}
			remaining++
			if th.atBar {
				atBar++
				continue
			}
			// Run this thread until it finishes, hits a barrier, or fails.
			for {
				if m.budget <= 0 {
					m.budgetExhausted(th.pc)
					return false
				}
				if steps[i] > 0 && m.commitEligible(th.pc) {
					if th.pc != th.outPC {
						m.add(Error, th.pc, fmt.Sprintf(
							"section replay reached boundary %d instead of %d (thread %d of block %d)",
							th.pc, th.outPC, th.id, m.gb))
						return false
					}
					done[i] = true
					break
				}
				if steps[i] >= budgets[i] {
					m.add(Error, th.pc, fmt.Sprintf(
						"section replay exceeded %d steps without reaching its boundary (thread %d of block %d)",
						budgets[i], th.id, m.gb))
					return false
				}
				blocked, ok := m.exec(th, shared, locals[th.id], modeCollective)
				if !ok {
					return false
				}
				steps[i]++
				progress = true
				if blocked {
					break
				}
			}
		}
		if remaining == 0 {
			break
		}
		if !progress {
			if atBar == remaining {
				for _, th := range pend {
					if th.atBar {
						th.atBar = false
						th.pc++
					}
				}
				continue
			}
			m.add(Error, -1, fmt.Sprintf("section replay deadlocked in block %d", m.gb))
			return false
		}
	}

	for i, th := range pend {
		m.diffStates(th, th.savedRegs, th.savedPreds, firstLogs[i], th.outPC)
		if m.failed {
			return false
		}
		copy(th.regs, th.savedRegs)
		th.preds = th.savedPreds
		th.storeLog = firstLogs[i]
		th.pc = th.outPC
		th.pending = false
		th.commit(th.outPC)
		m.commits++
	}
	m.collectives++
	return true
}

// runBlock interprets one thread block to completion.
func (m *orMachine) runBlock(gb int) bool {
	m.gb = gb
	prog := m.t.Prog
	n := m.block.Count()
	shared := make([]uint32, (prog.SharedBytes+3)/4)
	threads := make([]*orThread, n)
	locals := make([][]uint32, n)
	nr := prog.NumRegs
	if nr == 0 {
		nr = 1
	}
	for i := 0; i < n; i++ {
		threads[i] = &orThread{
			id:       i,
			regs:     make([]uint32, nr),
			storeLog: map[storeKey]uint32{},
			pendCkpt: map[isa.Reg]uint32{},
			commCkpt: map[isa.Reg]uint32{},
		}
		locals[i] = make([]uint32, (prog.LocalBytes+3)/4)
	}

	for {
		progress := false
		for _, th := range threads {
			if th.exited || th.atBar || th.pending {
				continue
			}
			if !m.runThread(th, shared, locals[th.id]) {
				if m.failed {
					return false
				}
			}
			progress = true
		}
		if progress {
			continue
		}
		var pend []*orThread
		exited, atBar := 0, 0
		for _, th := range threads {
			switch {
			case th.pending:
				pend = append(pend, th)
			case th.exited:
				exited++
			case th.atBar:
				atBar++
			}
		}
		if exited == n {
			return true
		}
		if len(pend) > 0 {
			if atBar > 0 {
				m.add(Error, -1, fmt.Sprintf(
					"block %d mixes threads waiting at a barrier with threads at a section commit: divergent section exit", m.gb))
				return false
			}
			if !m.collectiveReplay(pend, shared, locals) {
				return false
			}
			continue
		}
		if atBar > 0 && atBar+exited == n {
			for _, th := range threads {
				if th.atBar {
					th.atBar = false
					th.pc++
				}
			}
			continue
		}
		m.add(Error, -1, fmt.Sprintf("oracle deadlock in block %d (no runnable thread)", m.gb))
		return false
	}
}

// runLaunch interprets every block of the launch.
func (m *orMachine) runLaunch() bool {
	for gb := 0; gb < m.grid.Count(); gb++ {
		if !m.runBlock(gb) {
			return false
		}
	}
	return true
}

// OracleStats counts what the oracle verified.
type OracleStats struct {
	// Commits is the number of committed regions across all threads.
	Commits int
	// Replays is the number of per-thread region replays diffed.
	Replays int
	// Collectives is the number of collective section replays diffed.
	Collectives int
}

func (s *OracleStats) add(o OracleStats) {
	s.Commits += o.Commits
	s.Replays += o.Replays
	s.Collectives += o.Collectives
}

// Oracle runs the dynamic re-execution oracle for one launch of a
// compiled target over the given global memory (mutated in place, so
// multi-launch workloads can chain calls). ok is false when a diagnostic
// aborted the launch.
func Oracle(t *Target, grid, block isa.Dim3, params []uint32, gmem []uint32, cfg Config, rep *Report) (stats OracleStats, ok bool) {
	if !t.Regions {
		return OracleStats{}, true // nothing to verify: no boundaries, no recovery
	}
	m := &orMachine{
		t: t, cfg: cfg, rep: rep, gmem: gmem, params: params,
		grid: grid, block: block, budget: cfg.oracleSteps(),
	}
	ok = m.runLaunch()
	return OracleStats{Commits: m.commits, Replays: m.replays, Collectives: m.collectives}, ok
}

// OracleSpec runs the oracle over a full kernel spec compiled for a
// scheme: the main launch plus any follow-on Steps, sharing global
// memory exactly like core.Runner.Run. Returns an error only for
// harness failures (a step failing to compile); verification findings go
// into the report.
func OracleSpec(spec *core.KernelSpec, comp *core.Compiled, cfg Config, rep *Report) (OracleStats, error) {
	gmem := make([]uint32, (spec.MemBytes+3)/4)
	if spec.Setup != nil {
		spec.Setup(gmem)
	}
	var total OracleStats
	st, ok := Oracle(TargetOf(comp), spec.Grid, spec.Block, spec.Params, gmem, cfg, rep)
	total.add(st)
	if !ok {
		return total, nil
	}
	for i, step := range spec.Steps {
		sc, err := core.Compile(step.Prog, comp.Opt)
		if err != nil {
			return total, fmt.Errorf("vet: oracle step %d: %w", i+1, err)
		}
		st, ok := Oracle(TargetOf(sc), step.Grid, step.Block, step.Params, gmem, cfg, rep)
		total.add(st)
		if !ok {
			return total, nil
		}
	}
	return total, nil
}
