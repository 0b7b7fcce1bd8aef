package core

import (
	"fmt"
	"math/bits"

	"flame/internal/flame"
)

// SiteCensus partitions the single-strike arm-cycle space [0, ArmSpan)
// of one benchmark by what the pruner can prove about each arm's firing
// event. It is the trace-ACE half of AVF prediction (vet.Predict): the
// fault-free golden schedule decides which arm cycles strike provably
// un-ACE state — a register that is statically outside the store-reach
// slice, or whose struck lane never reads it again — and which strike
// state whose corruption can reach memory, control flow, or timing.
// Every arm cycle lands in exactly one bucket; register-site arms whose
// event has both dead and live lanes split fractionally by the
// injector's uniform lane draw, so the float buckets are exact
// expectations over that draw, not estimates.
type SiteCensus struct {
	// Span is the arm-cycle space size (Golden.ArmSpan()).
	Span int64 `json:"span"`
	// NoInjection counts arm cycles past the last corruptible event.
	NoInjection int64 `json:"no_injection"`
	// DeadStatic counts register-site arms whose destination is outside
	// the store-reach slice (flame.Site.Reaches): the corrupted value can
	// never feed a store, address, predicate, branch, or latency — on any
	// lane.
	DeadStatic int64 `json:"dead_static"`
	// DeadDynamic is the expected number of register-site arms whose
	// store-reach destination is never read again by the struck lane in
	// the golden schedule (the per-lane future-read refinement). An
	// event with v vulnerable lanes out of m executing contributes
	// (m-v)/m of its owned arms here and v/m to LiveRegister.
	DeadDynamic float64 `json:"dead_dynamic"`
	// LiveRegister is the expected number of register-site arms whose
	// struck lane reads the destination again: the trial outcome is
	// value-dependent (vulnerable).
	LiveRegister float64 `json:"live_register"`
	// StoreData counts global-store data arms (memory is corrupted
	// directly; always vulnerable).
	StoreData int64 `json:"store_data"`
}

// Injectable is the number of arm cycles that fire a strike.
func (c *SiteCensus) Injectable() int64 { return c.Span - c.NoInjection }

// CertainMasked is the expected number of arm cycles whose strike is
// provably masked absent detection (the un-ACE mass).
func (c *SiteCensus) CertainMasked() float64 { return float64(c.DeadStatic) + c.DeadDynamic }

// Vulnerable is the expected number of arm cycles whose outcome is
// value-dependent (the ACE upper bound).
func (c *SiteCensus) Vulnerable() float64 { return c.LiveRegister + float64(c.StoreData) }

// Census walks the recorded golden schedule once through the golden's
// strike model (Golden.Sites) and partitions the arm-cycle space under
// the given fault model: each event owns the arm cycles the model's
// ownership walk gives it — the same walk that weighs the strata — and
// its site decides the bucket, as it decides PruneTrial's verdict. The
// CertainMasked mass counted here is therefore exactly the probability
// mass the pruner would classify Masked (detection aside) under the
// injector's uniform lane draw. Fails when the index is disabled.
func (px *PruneIndex) Census(g *Golden, model flame.FaultModel) (*SiteCensus, error) {
	if px == nil || px.disabled != "" {
		return nil, fmt.Errorf("census: pruning disabled: %s", px.Disabled())
	}
	c := &SiteCensus{Span: g.ArmSpan()}
	walk := g.Sites.Walk(model, c.Span)
	for evi := range px.events {
		if walk.Exhausted() {
			break
		}
		ev := &px.events[evi]
		site, lo, hi, ok := walk.Own(ev.cyc, int(ev.pc), ev.mask)
		if !ok {
			continue
		}
		owned := hi - lo + 1
		switch {
		case site.Kind == flame.StoreSite:
			c.StoreData += owned
		case !site.Reaches:
			c.DeadStatic += owned
		default:
			frac := float64(bits.OnesCount32(px.vuln[evi])) / float64(bits.OnesCount32(ev.mask))
			c.LiveRegister += float64(owned) * frac
			c.DeadDynamic += float64(owned) * (1 - frac)
		}
	}
	c.NoInjection = walk.NoInjection()
	return c, nil
}
