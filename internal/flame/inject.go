package flame

import (
	"fmt"
	"math/rand"

	"flame/internal/gpu"
)

// FaultModel selects which microarchitectural state an injector may
// corrupt.
type FaultModel uint8

const (
	// DataSlice strikes only the data slice — destination registers and
	// store data that idempotent re-execution provably repairs. This is
	// the paper's fault model (Section III-B): register files, caches and
	// memory are ECC-protected and AGUs are hardened, so faults manifest
	// as corrupted values, never as wrong addresses or control.
	DataSlice FaultModel = iota
	// FullSite additionally strikes the address/control slice: registers
	// that transitively feed memory-address bases or comparisons. The
	// paper's scheme does not claim coverage there (a corrupted address
	// or predicate input can commit a stray store that re-execution never
	// overwrites, or livelock the kernel); injecting into the full site
	// set lets a campaign MEASURE the effective-coverage boundary instead
	// of assuming it.
	FullSite
)

// String returns the model's campaign-flag spelling.
func (m FaultModel) String() string {
	switch m {
	case DataSlice:
		return "data"
	case FullSite:
		return "full"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseFaultModel parses a campaign-flag spelling ("data" or "full").
func ParseFaultModel(s string) (FaultModel, error) {
	switch s {
	case "data", "data-slice":
		return DataSlice, nil
	case "full", "full-site":
		return FullSite, nil
	}
	return DataSlice, fmt.Errorf("flame: unknown fault model %q (want data or full)", s)
}

// Strike records one particle strike of an injection trial.
type Strike struct {
	// ArmCycle is the cycle at or after which the strike corrupts the
	// next eligible executed instruction.
	ArmCycle int64
	// Injected is set once the strike corrupted state.
	Injected bool
	// Detected is set once the sensors reported the strike.
	Detected bool
	// InjectedAt / DetectedAt are the corruption and detection cycles.
	InjectedAt, DetectedAt int64
	// Hit is where the strike landed (valid once Injected): the site
	// (register or store data, and whether it is excluded), the
	// instruction, the lane and the flipped bit.
	Hit
	// SM and Warp identify the struck warp (valid once Injected): the SM
	// index and the warp's slot ID on that SM. Propagation tracers key
	// their taint state on (SM, Warp) to follow the corrupted value
	// through subsequent instructions.
	SM, Warp int
	// Description says what was corrupted, for logs.
	Description string

	detectAt int64
}

// Injector models particle strikes corrupting the output of in-flight
// instructions, and the acoustic sensors detecting each within WCDL
// cycles. It is the one source of sensor reports (Reports), false
// positives included. A single-strike injector (NewInjector) reproduces
// the paper's per-run fault model; campaign trials may arm several
// strikes and widen the target set with the FullSite model. The zero
// Injector arms no strike; with FalsePositives set it only reports.
type Injector struct {
	// Sites is the strike model of the kernel the injector observes.
	Sites *Sites
	// MaxDelay bounds the sensor detection delay in cycles (uniform in
	// [1, MaxDelay]); it must not exceed the WCDL. Zero means immediate
	// detection (duplication/tail-DMR schemes).
	MaxDelay int
	// Model selects the injectable site set.
	Model FaultModel
	// Rand drives lane/bit/delay choices.
	Rand *rand.Rand

	// Strikes are the armed strikes, sorted by ArmCycle; strike k+1 only
	// arms after strike k fired.
	Strikes []Strike

	// Aggregate results, kept for single-strike callers:
	// Injected reports that at least one strike corrupted state, Detected
	// that every fired strike was detected. InjectedAt is the first
	// corruption cycle, DetectedAt the latest detection cycle, and
	// Description describes the first strike.
	Injected    bool
	Detected    bool
	InjectedAt  int64
	DetectedAt  int64
	Description string
	// Detections counts detected strikes.
	Detections int

	// FalsePositives lists cycles at which the sensors spuriously report
	// a strike (mis-calibration, Section IV): the report triggers the
	// same recovery as a real one, with no corruption behind it. Must be
	// sorted ascending.
	FalsePositives []int64

	next   int // index of the next unfired strike
	nextFP int // index of the next unreported false positive
}

// NewInjector creates a single-strike data-slice injector armed at the
// given cycle (the paper's per-run fault model) for the kernel sites
// describes.
func NewInjector(sites *Sites, armCycle int64, maxDelay int, seed int64) *Injector {
	return NewCampaignInjector(sites, []int64{armCycle}, maxDelay, DataSlice, seed)
}

// NewCampaignInjector creates an injector arming one strike per entry of
// arms (each fires at the first eligible instruction at or after its
// cycle, in order) under the given fault model, for the kernel sites
// describes.
func NewCampaignInjector(sites *Sites, arms []int64, maxDelay int, model FaultModel, seed int64) *Injector {
	inj := &Injector{
		Sites:    sites,
		MaxDelay: maxDelay,
		Model:    model,
		Rand:     rand.New(rand.NewSource(seed)),
		Strikes:  make([]Strike, len(arms)),
	}
	for i, a := range arms {
		inj.Strikes[i].ArmCycle = a
	}
	return inj
}

// Observe is called after each executed instruction (from the
// controller's OnExecuted hook, or directly for unprotected campaigns);
// it corrupts the first eligible instruction once a strike is armed.
func (inj *Injector) Observe(d *gpu.Device, sm *gpu.SM, w *gpu.Warp, pc int) {
	if inj.next >= len(inj.Strikes) {
		return
	}
	s := &inj.Strikes[inj.next]
	if d.Cyc < s.ArmCycle {
		return
	}
	if d.Kernel() != inj.Sites.prog {
		panic("flame: the injector's strike model describes another kernel")
	}
	h, ok := inj.Sites.Fire(inj.Rand, inj.Model, pc, StrikeLanes(w))
	if !ok {
		return // stay armed
	}
	switch h.Kind {
	case RegisterSite:
		w.SetReg(h.Lane, h.Reg, w.Reg(h.Lane, h.Reg)^h.Bit)
		s.Description = inj.Sites.Describe(h, d.Cyc, w.ID, sm.ID)
	case StoreSite:
		addr := sm.LaneAddress(w, h.Lane, pc)
		v, err := d.Mem.Load(addr)
		if err != nil {
			return
		}
		if d.Mem.Store(addr, v^h.Bit) != nil {
			return
		}
		s.Description = fmt.Sprintf("cycle %d: flipped bit %#x of store data at %#x (lane %d, warp %d, SM %d)",
			d.Cyc, h.Bit, addr, h.Lane, w.ID, sm.ID)
	}
	s.Hit, s.SM, s.Warp = h, sm.ID, w.ID
	s.Injected = true
	s.InjectedAt = d.Cyc
	s.detectAt = d.Cyc + SensorDelay(inj.Rand, inj.MaxDelay)
	if !inj.Injected {
		inj.InjectedAt = d.Cyc
		inj.Description = s.Description
	}
	inj.Injected = true
	inj.Detected = false // pending detection outstanding
	inj.next++
}

// FiredStrikes counts the strikes that corrupted state.
func (inj *Injector) FiredStrikes() int { return inj.next }

// ExcludedStrikes counts fired strikes that landed in the
// address/control slice (possible only under FullSite).
func (inj *Injector) ExcludedStrikes() int {
	n := 0
	for i := range inj.Strikes {
		if inj.Strikes[i].Injected && inj.Strikes[i].Excluded {
			n++
		}
	}
	return n
}

// Reports returns how many sensor reports come due at cycle cyc: one
// when pending strikes are detected (it marks them detected; one report
// covers every strike detected in the same cycle), plus one per false
// positive due. The caller runs one recovery per report.
func (inj *Injector) Reports(cyc int64) int {
	n, undetected := 0, 0
	for i := range inj.Strikes {
		s := &inj.Strikes[i]
		if !s.Injected || s.Detected {
			continue
		}
		if cyc >= s.detectAt {
			s.Detected = true
			s.DetectedAt = cyc
			inj.DetectedAt = cyc
			inj.Detections++
			n = 1
		} else {
			undetected++
		}
	}
	if n > 0 && undetected == 0 {
		inj.Detected = true
	}
	for ; inj.nextFP < len(inj.FalsePositives) && cyc >= inj.FalsePositives[inj.nextFP]; inj.nextFP++ {
		n++
	}
	return n
}
