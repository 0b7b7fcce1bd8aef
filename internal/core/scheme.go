// Package core orchestrates the resilience schemes the paper evaluates
// (Section V-B): it runs the right compiler pipeline for each scheme,
// attaches the matching Flame controller to the simulator, and runs
// classified fault-injection trials. Engine is the only trial runner:
// every campaign trial, explained trial and test reference goes through
// Engine.RunTrial. This is the layer the public API, the benchmarks,
// and the experiment harness sit on.
package core

import (
	"fmt"
	"sort"
	"strings"

	"flame/internal/checkpoint"
	"flame/internal/dup"
	"flame/internal/flame"
	"flame/internal/isa"
	"flame/internal/regions"
	"flame/internal/rename"
)

// Scheme identifies one evaluated resilience configuration.
type Scheme uint8

// The evaluated schemes. SensorRenaming with the region-extension
// optimization is the paper's full Flame design.
const (
	// Baseline runs the unmodified kernel with no resilience support.
	Baseline Scheme = iota
	// Renaming is recovery-only idempotent processing with
	// anti-dependent register renaming.
	Renaming
	// Checkpointing is recovery-only idempotent processing with Penny's
	// live-out register checkpointing.
	Checkpointing
	// SensorRenaming is Flame: acoustic sensor detection + renaming
	// recovery + WCDL-aware warp scheduling.
	SensorRenaming
	// SensorCheckpointing pairs sensor detection with checkpointing
	// recovery.
	SensorCheckpointing
	// DupRenaming pairs SwapCodes instruction duplication with renaming
	// recovery.
	DupRenaming
	// DupCheckpointing pairs SwapCodes duplication with checkpointing.
	DupCheckpointing
	// HybridRenaming is tail-DMR detection (sensors + duplicated region
	// tails) with renaming recovery.
	HybridRenaming
	// HybridCheckpointing is tail-DMR with checkpointing recovery.
	HybridCheckpointing

	numSchemes
)

var schemeNames = [numSchemes]string{
	Baseline:            "Baseline",
	Renaming:            "Renaming",
	Checkpointing:       "Checkpointing",
	SensorRenaming:      "Sensor+Renaming",
	SensorCheckpointing: "Sensor+Checkpointing",
	DupRenaming:         "Duplication+Renaming",
	DupCheckpointing:    "Duplication+Checkpointing",
	HybridRenaming:      "Hybrid+Renaming",
	HybridCheckpointing: "Hybrid+Checkpointing",
}

// String returns the scheme's name as used in the paper's figures.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// schemeFlags lists each scheme's CLI spellings, canonical first. It is
// the one spelling table: SchemeByName, FlagName and SchemeFlagNames
// all read it.
var schemeFlags = [numSchemes][]string{
	Baseline:            {"baseline"},
	Renaming:            {"renaming"},
	Checkpointing:       {"checkpointing"},
	SensorRenaming:      {"flame", "sensor-renaming"},
	SensorCheckpointing: {"sensor-checkpointing"},
	DupRenaming:         {"dup-renaming"},
	DupCheckpointing:    {"dup-checkpointing"},
	HybridRenaming:      {"hybrid-renaming"},
	HybridCheckpointing: {"hybrid-checkpointing"},
}

// SchemeByName parses a CLI scheme spelling ("flame", "dup-renaming",
// ... — case-insensitive).
func SchemeByName(s string) (Scheme, error) {
	lower := strings.ToLower(s)
	for sc, names := range schemeFlags {
		for _, name := range names {
			if name == lower {
				return Scheme(sc), nil
			}
		}
	}
	return Baseline, fmt.Errorf("core: unknown scheme %q", s)
}

// FlagName returns the scheme's canonical CLI spelling — the inverse of
// SchemeByName, used on wire protocols that must round-trip schemes
// (String returns the paper's figure labels, which do not parse).
func (s Scheme) FlagName() string {
	if int(s) < len(schemeFlags) {
		return schemeFlags[s][0]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// SchemeFlagNames lists the accepted CLI spellings, sorted.
func SchemeFlagNames() []string {
	var out []string
	for _, names := range schemeFlags {
		out = append(out, names...)
	}
	sort.Strings(out)
	return out
}

// Schemes returns all evaluated schemes in figure order.
func Schemes() []Scheme {
	out := make([]Scheme, numSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// UsesSensors reports whether the scheme deschedules warps at region
// boundaries for WCDL verification (the RBQ path).
func (s Scheme) UsesSensors() bool {
	return s == SensorRenaming || s == SensorCheckpointing
}

// UsesRenaming reports whether recovery uses register renaming.
func (s Scheme) UsesRenaming() bool {
	switch s {
	case Renaming, SensorRenaming, DupRenaming, HybridRenaming:
		return true
	}
	return false
}

// UsesCheckpointing reports whether recovery uses register checkpointing.
func (s Scheme) UsesCheckpointing() bool {
	switch s {
	case Checkpointing, SensorCheckpointing, DupCheckpointing, HybridCheckpointing:
		return true
	}
	return false
}

// Recoverable reports whether the scheme can recover from detected errors
// (everything except Baseline; the recovery-only schemes detect nothing
// but still form recoverable regions).
func (s Scheme) Recoverable() bool { return s != Baseline }

// Detects reports whether the scheme includes an error-detection
// mechanism (sensors, duplication, or both).
func (s Scheme) Detects() bool {
	return s.UsesSensors() || s == DupRenaming || s == DupCheckpointing ||
		s == HybridRenaming || s == HybridCheckpointing
}

// Options configures compilation for a scheme.
type Options struct {
	Scheme Scheme
	// WCDL is the sensor worst-case detection latency in cycles
	// (default 20, the paper's default deployment).
	WCDL int
	// ExtendRegions enables the Section III-E region-extension
	// optimization (only meaningful for sensor-based schemes; the
	// paper's Flame enables it for Sensor+Renaming).
	ExtendRegions bool
	// EagerSectionVerify is an ablation knob: region boundaries strictly
	// inside an extended section wait for verification even though the
	// recovery PC cannot advance there. Off in the full design.
	EagerSectionVerify bool
	// CkptAtRegionEnd groups checkpoint stores at region ends (Penny's
	// checkpoint scheduling, Figure 3(b)) instead of at each definition.
	CkptAtRegionEnd bool
}

// EffectiveWCDL is the WCDL a compilation uses: WCDL when positive,
// else the paper's default of 20 cycles.
func (o Options) EffectiveWCDL() int {
	if o.WCDL <= 0 {
		return 20
	}
	return o.WCDL
}

// Flame returns the full Flame configuration: sensors + renaming +
// region extension at the paper's default 20-cycle WCDL.
func FlameOptions() Options {
	return Options{Scheme: SensorRenaming, WCDL: 20, ExtendRegions: true}
}

// Compiled is a kernel compiled for a scheme, ready to run.
type Compiled struct {
	Opt  Options
	Prog *isa.Program
	// Sections are extended regions (collective verification spans).
	Sections []regions.Section
	// CkptSlots maps checkpointed registers to local-memory slots
	// (checkpointing schemes only).
	CkptSlots map[isa.Reg]int32

	// Compilation statistics.
	Form       *regions.Result
	RenameStat rename.Stats
	CkptStat   *checkpoint.Result
	DupStat    dup.Stats
}

// Compile runs the scheme's compiler pipeline on a clone of the source
// program (the source is never mutated).
func Compile(src *isa.Program, opt Options) (*Compiled, error) {
	opt.WCDL = opt.EffectiveWCDL()
	c := &Compiled{Opt: opt, Prog: src.Clone()}
	if opt.Scheme == Baseline {
		return c, nil
	}

	form, err := regions.Form(c.Prog, regions.Options{
		ExtendAcrossBarriers: opt.ExtendRegions && opt.Scheme.UsesSensors(),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
	}
	c.Form = form
	c.Sections = form.Sections

	// The remaining passes insert instructions; the trace lets us remap
	// the section spans (instruction index ranges) afterwards so they
	// keep covering the same code.
	tr := new(isa.EditTrace)

	switch {
	case opt.Scheme.UsesRenaming():
		st, err := rename.Apply(c.Prog, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
		}
		c.RenameStat = st
	case opt.Scheme.UsesCheckpointing():
		place := checkpoint.AtDef
		if opt.CkptAtRegionEnd {
			place = checkpoint.AtRegionEnd
		}
		ck, err := checkpoint.ApplyPlaced(c.Prog, place, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
		}
		c.CkptStat = ck
		c.CkptSlots = ck.Slots
	}

	switch opt.Scheme {
	case DupRenaming, DupCheckpointing:
		st, err := dup.Full(c.Prog, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
		}
		c.DupStat = st
	case HybridRenaming, HybridCheckpointing:
		st, err := dup.Tail(c.Prog, opt.WCDL, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
		}
		c.DupStat = st
	}

	if len(c.Sections) > 0 {
		remapped := make([]regions.Section, len(c.Sections))
		for i, s := range c.Sections {
			remapped[i] = regions.Section{Start: tr.Remap(s.Start), End: tr.Remap(s.End)}
		}
		c.Sections = remapped
	}

	if opt.Scheme.UsesRenaming() {
		if err := regions.VerifyIdempotence(c.Prog, c.Sections, false); err != nil {
			return nil, fmt.Errorf("%s: %w", opt.Scheme, err)
		}
	}
	return c, nil
}

// Controller builds the Flame controller matching the compiled scheme,
// or nil when the scheme needs no runtime support (Baseline and the
// recovery-only schemes in fault-free runs).
func (c *Compiled) Controller() *flame.Controller {
	return c.resetController(new(flame.Controller))
}

// resetController resets ctl to the controller Controller builds, for
// a new launch, and returns it; it returns nil, leaving ctl alone, when
// the scheme needs no runtime support.
func (c *Compiled) resetController(ctl *flame.Controller) *flame.Controller {
	s := c.Opt.Scheme
	if s == Baseline || s == Renaming || s == Checkpointing {
		return nil
	}
	ctl.Reset(flame.Mode{
		WCDL:               c.Opt.WCDL,
		UseRBQ:             s.UsesSensors(),
		Sections:           c.Sections,
		CkptSlots:          c.CkptSlots,
		EagerSectionVerify: c.Opt.EagerSectionVerify,
	})
	return ctl
}
