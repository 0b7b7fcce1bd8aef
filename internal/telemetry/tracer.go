package telemetry

// The propagation tracer follows each injected strike through the
// register dataflow, and through shared and local memory, to the first
// global store it could have corrupted (the propagation depth campaign
// reports and /metrics show).
//
// It rides the ordinary gpu.Hooks machinery (OnExecuted /
// OnWarpDispatch only). Every field it records is a deterministic
// function of the trial, keeping traced campaign reports byte-identical
// at any worker count.

import (
	"fmt"
	"math/bits"

	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// Tracer implements core.TrialObserver: per-warp register taint
// tracking seeded at each strike's corrupted site. Memory below global
// is tracked one bit per space instance: a tainted store or atomic to
// shared memory taints its block's whole scratchpad, one to local
// memory its warp's, and any later load or atomic from a tainted
// scratchpad taints its destination. Taint is monotone (no strong
// updates — a per-warp bit cannot soundly model a per-lane overwrite
// under divergence, nor a per-space bit a per-word one), so StoreCycle
// is the earliest global store the strike could have reached, and
// Depth a conservative propagation distance. A Tracer is reused across
// the trials of one worker; it is not safe for concurrent use.
type Tracer struct {
	hooks gpu.Hooks

	inj    *flame.Injector
	golden *core.Golden

	// taints maps (SM, warp slot) to that warp's taint state. Warp
	// slots are reused across blocks; OnWarpDispatch clears the slot,
	// because a retiring warp's registers (and any taint in them) die
	// with it — corruption it stored lives on in memory, which the
	// final-memory fingerprint accounts for.
	taints map[int]*warpTaint
	// shared holds the (SM, block slot) keys whose shared memory holds
	// taint. A block slot's scratchpad is zeroed when a new block is
	// placed in it, so dispatch clears the key.
	shared map[int]bool

	seen         int // strikes absorbed into taint state so far
	taintedInsts int
	storeCycle   int64
	done         bool
}

type warpTaint struct {
	regs  []bool
	preds uint16 // bitmap over isa.NumPredRegs
	local bool   // the warp's local memory holds taint
}

func (wt *warpTaint) reg(r isa.Reg) bool {
	return int(r) < len(wt.regs) && wt.regs[r]
}

func (wt *warpTaint) setReg(r isa.Reg) {
	if int(r) >= len(wt.regs) {
		grown := make([]bool, int(r)+1)
		copy(grown, wt.regs)
		wt.regs = grown
	}
	wt.regs[r] = true
}

// NewTracer creates a propagation tracer. Give each campaign worker its
// own and attach it via core.TrialSpec.Observer.
func NewTracer() *Tracer {
	t := &Tracer{taints: map[int]*warpTaint{}, shared: map[int]bool{}, storeCycle: -1}
	t.hooks.OnExecuted = t.onExecuted
	t.hooks.OnWarpDispatch = t.onWarpDispatch
	return t
}

// BeginTrial resets the tracer for a new trial (core.TrialObserver).
func (t *Tracer) BeginTrial(g *core.Golden, inj *flame.Injector) {
	t.inj, t.golden = inj, g
	clear(t.taints)
	clear(t.shared)
	t.seen, t.taintedInsts, t.storeCycle, t.done = 0, 0, -1, false
}

// TrialHooks returns the tracer's observation hooks
// (core.TrialObserver).
func (t *Tracer) TrialHooks() *gpu.Hooks { return &t.hooks }

func warpKey(smID, warpID int) int { return smID<<16 | warpID }

// sharedKey keys a resident block's shared memory (every warp of the
// block has the same key).
func sharedKey(sm *gpu.SM, w *gpu.Warp) int { return warpKey(sm.ID, w.BlockSlot) }

func (t *Tracer) onWarpDispatch(d *gpu.Device, sm *gpu.SM, w *gpu.Warp) {
	delete(t.taints, warpKey(sm.ID, w.ID))
	delete(t.shared, sharedKey(sm, w))
}

// memTainted reports whether in loads from a scratchpad (shared or
// local memory) that holds taint.
func (t *Tracer) memTainted(in *isa.Inst, sm *gpu.SM, w *gpu.Warp, wt *warpTaint) bool {
	if in.Op != isa.OpLd && in.Op != isa.OpAtom {
		return false
	}
	switch in.Space {
	case isa.SpaceShared:
		return t.shared[sharedKey(sm, w)]
	case isa.SpaceLocal:
		return wt != nil && wt.local
	}
	return false
}

func (t *Tracer) onExecuted(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	if t.done || t.inj == nil {
		return
	}
	// Absorb strikes that fired since the last observation. The
	// injector's hook runs before the tracer's (scheme hooks first in
	// gpu.CombineHooks), so the striking instruction itself already
	// shows as fired here.
	for fired := t.inj.FiredStrikes(); t.seen < fired; t.seen++ {
		s := &t.inj.Strikes[t.seen]
		if s.Kind == flame.StoreSite {
			// Store-data corruption: the struck store IS the first
			// corrupted store — propagation depth zero.
			t.recordStore(s.InjectedAt)
			return
		}
		wt := t.taints[warpKey(s.SM, s.Warp)]
		if wt == nil {
			wt = &warpTaint{}
			t.taints[warpKey(s.SM, s.Warp)] = wt
		}
		wt.setReg(s.Reg)
	}
	wt := t.taints[warpKey(sm.ID, w.ID)]
	if wt == nil && len(t.shared) == 0 {
		return
	}
	in := &d.Kernel().Insts[pc]
	tainted := wt != nil && wt.uses(in)
	if !tainted && !t.memTainted(in, sm, w, wt) {
		return
	}
	if wt == nil {
		wt = &warpTaint{}
		t.taints[warpKey(sm.ID, w.ID)] = wt
	}
	t.taintedInsts++
	if in.Op.IsStore() && tainted {
		// A store or atomic consuming a tainted address or data operand.
		switch in.Space {
		case isa.SpaceGlobal:
			// The earliest point the strike can corrupt global memory.
			t.recordStore(d.Cyc)
			return
		case isa.SpaceShared:
			t.shared[sharedKey(sm, w)] = true
		case isa.SpaceLocal:
			wt.local = true
		}
	}
	if r := in.Defs(); r != isa.NoReg {
		wt.setReg(r)
	}
	if p := in.DefsPred(); p != isa.NoPred {
		wt.preds |= 1 << p
	}
}

// uses reports whether in reads a tainted register or predicate.
func (wt *warpTaint) uses(in *isa.Inst) bool {
	var uses [4]isa.Reg
	for _, r := range in.Uses(uses[:0]) {
		if wt.reg(r) {
			return true
		}
	}
	var pu [2]isa.PredReg
	for _, p := range in.UsesPred(pu[:0]) {
		if wt.preds&(1<<p) != 0 {
			return true
		}
	}
	return false
}

func (t *Tracer) recordStore(cyc int64) {
	if t.storeCycle < 0 {
		t.storeCycle = cyc
	}
	t.done = true // headline metric complete; stop paying per-inst cost
}

// EndTrial attaches the trial's PropRecord (core.TrialObserver).
// Trials whose strikes never fired get none — their results stay
// byte-identical to the untraced encoding.
func (t *Tracer) EndTrial(tr *core.TrialResult, finalMem []uint32, g *core.Golden) {
	inj := t.inj
	t.inj, t.golden = nil, nil
	if inj == nil || tr.Strikes == 0 {
		return
	}
	rec := &core.PropRecord{
		StrikeCycle:   inj.InjectedAt,
		StoreCycle:    t.storeCycle,
		Depth:         -1,
		DetectLatency: -1,
		TaintedInsts:  t.taintedInsts,
	}
	if t.storeCycle >= 0 {
		rec.Depth = t.storeCycle - inj.InjectedAt
	}
	if at := firstDetection(inj); at >= 0 {
		rec.DetectLatency = at - inj.InjectedAt
	}
	if tr.Outcome == core.OutcomeSDC && finalMem != nil {
		fingerprint(rec, finalMem, g.Mem)
	}
	tr.Prop = rec
}

// firstDetection returns the earliest detection cycle across strikes,
// or -1 when nothing was detected.
func firstDetection(inj *flame.Injector) int64 {
	at := int64(-1)
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if s.Detected && (at < 0 || s.DetectedAt < at) {
			at = s.DetectedAt
		}
	}
	return at
}

// fingerprint fills the final-memory divergence fields of an SDC
// trial's record: extent, page/magnitude histograms, and the FNV-1a
// hash of the (word index, XOR) divergence set.
func fingerprint(rec *core.PropRecord, mem, golden []uint32) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	n := len(mem)
	if len(golden) < n {
		n = len(golden)
	}
	var magHist [32]int
	pageWords := map[int]int{}
	for i := 0; i < n; i++ {
		x := mem[i] ^ golden[i]
		if x == 0 {
			continue
		}
		rec.DivergedWords++
		magHist[bits.Len32(x)-1]++
		pageWords[i/gpu.PageWords]++
		h = (h ^ uint64(i)) * prime
		h = (h ^ uint64(x)) * prime
	}
	if rec.DivergedWords == 0 {
		return // SDC from a length mismatch only; nothing to bucket
	}
	rec.DivergedPages = len(pageWords)
	var pageHist [32]int
	for _, words := range pageWords {
		pageHist[bits.Len32(uint32(words))-1]++
	}
	rec.MagHist = trimHist(magHist[:])
	rec.PageHist = trimHist(pageHist[:])
	rec.Fingerprint = fmt.Sprintf("%016x", h)
}

// trimHist drops trailing zero buckets (nil for an all-zero histogram)
// so records marshal compactly and deterministically.
func trimHist(h []int) []int {
	n := len(h)
	for n > 0 && h[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	copy(out, h)
	return out
}
