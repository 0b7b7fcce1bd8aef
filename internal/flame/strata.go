package flame

import (
	"fmt"
	"math"
	"sort"

	"flame/internal/isa"
)

// Stratified enumeration of the single-strike injection-site space.
//
// A single-strike campaign trial arms at a uniformly random cycle in
// [0, span), and the strike model's ownership walk (ArmWalk) gives
// every corruptible event of the fault-free golden schedule the exact,
// disjoint interval of arm cycles whose strike fires on it.
//
// Partitioning those intervals by (kernel, section, opcode class) gives
// strata with EXACT integer site counts: sampling stratum h uniformly
// over its own arm cycles and weighting by Sites/ΣSites reproduces the
// uniform-over-arms trial distribution without wasting trials on strata
// a pilot round has already shown to be deterministic.

// SiteStratum is one stratum of the arm-cycle space: all arm cycles
// whose strike fires on an instruction of one (section, opcode class)
// group of one kernel — further split by a static site label when the
// builder was given one (the liveness-class key).
type SiteStratum struct {
	// Kernel is the main kernel's program name.
	Kernel string
	// Section is the index of the compiled extended region (section)
	// containing the firing instruction, or -1 outside every section.
	Section int
	// Class is the firing instruction's opcode class.
	Class isa.OpClass
	// Live is the firing instruction's static liveness-class label
	// (dead/short/long/store), or "" when the enumeration did not key
	// on liveness. It is part of Key(), so turning the dimension on
	// changes stratum seeds — by design: a different key is a
	// different (still fully deterministic) trial grid.
	Live string
	// Sites is the exact number of arm cycles in the stratum.
	Sites int64

	// intervals are the stratum's disjoint arm-cycle ranges, ascending;
	// cum[i] is the total site count of intervals[:i] for ArmAt's
	// binary search.
	intervals []armInterval
	cum       []int64
}

// armInterval is an inclusive arm-cycle range [lo, hi].
type armInterval struct{ lo, hi int64 }

// Key returns the stratum's canonical report/seed key, e.g.
// "triad/s0/alu" ("s-1" for instructions outside every section), with
// the liveness label appended ("triad/s0/alu/dead") when present.
func (s *SiteStratum) Key() string {
	if s.Live != "" {
		return fmt.Sprintf("%s/s%d/%s/%s", s.Kernel, s.Section, s.Class, s.Live)
	}
	return fmt.Sprintf("%s/s%d/%s", s.Kernel, s.Section, s.Class)
}

// ArmAt returns the stratum's r-th arm cycle, r in [0, Sites).
func (s *SiteStratum) ArmAt(r int64) int64 {
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > r })
	iv := s.intervals[i]
	prev := int64(0)
	if i > 0 {
		prev = s.cum[i-1]
	}
	return iv.lo + (r - prev)
}

// StrataMap is the full enumeration of one benchmark's single-strike
// site space under one compilation and fault model.
type StrataMap struct {
	// Kernel is the main kernel's program name.
	Kernel string
	// Span is the arm-cycle space size (the campaign's g.Window*9/10+1).
	Span int64
	// NoInjectionSites counts arm cycles past the last corruptible event
	// (trials armed there classify NoInjection; the stratified sampler
	// never draws them, excluding the no-injection region analytically).
	NoInjectionSites int64
	// Strata are the corruptible strata, sorted by (Section, Class).
	Strata []SiteStratum
}

// InjectableSites is the total arm-cycle count across all strata
// (Span - NoInjectionSites).
func (m *StrataMap) InjectableSites() int64 { return m.Span - m.NoInjectionSites }

// StrataBuilder carves the arm-cycle space into strata: it feeds the
// golden schedule's events to the strike model's ownership walk
// (Sites.Walk) and files each owned interval under its event's
// (section, opcode class, label) group. Feed it exactly the events
// Injector.Observe would see (executed instructions of the main kernel,
// in order) via Observe, then call Finish.
type StrataBuilder struct {
	walk     *ArmWalk
	kernel   string
	sections [][2]int
	labels   []string // optional per-pc site labels (liveness key)

	index map[strataGroup]int
	strat []SiteStratum
}

// strataGroup is the builder's grouping key for one stratum.
type strataGroup struct {
	section int
	class   isa.OpClass
	live    string
}

// NewStrataBuilder prepares an enumeration of the site space of the
// kernel sites describes. sections are the compiled section spans as
// [start, end) instruction index pairs; span is the arm-cycle space
// size.
func NewStrataBuilder(sites *Sites, kernel string, sections [][2]int, model FaultModel, span int64) *StrataBuilder {
	return &StrataBuilder{
		walk: sites.Walk(model, span), kernel: kernel, sections: sections,
		index: map[strataGroup]int{},
	}
}

// SetSiteLabels adds a per-instruction site-label dimension to the
// enumeration (labels[pc] for instruction pc; the slice must cover the
// program). Events whose label differs land in distinct strata and the
// label becomes part of every Key(). The caller derives labels from
// static analysis — the liveness-class key passes
// analysis.SiteClass.String() spellings.
func (b *StrataBuilder) SetSiteLabels(labels []string) {
	if n := len(b.walk.sites.prog.Insts); len(labels) != n {
		panic(fmt.Sprintf("strata: %d labels for %d instructions", len(labels), n))
	}
	b.labels = labels
}

// sectionOf returns the index of the section containing instruction pc,
// or -1.
func (b *StrataBuilder) sectionOf(pc int) int {
	for i, s := range b.sections {
		if pc >= s[0] && pc < s[1] {
			return i
		}
	}
	return -1
}

// Observe feeds one golden-schedule event: instruction pc executed at
// cycle cyc with strike lanes lanes (StrikeLanes). Events must arrive
// in the order the injector would observe them.
func (b *StrataBuilder) Observe(cyc int64, pc int, lanes uint32) {
	_, lo, hi, ok := b.walk.Own(cyc, pc, lanes)
	if !ok {
		return
	}
	key := strataGroup{section: b.sectionOf(pc), class: b.walk.sites.prog.Insts[pc].Op.Class()}
	if b.labels != nil {
		key.live = b.labels[pc]
	}
	h, ok := b.index[key]
	if !ok {
		h = len(b.strat)
		b.index[key] = h
		b.strat = append(b.strat, SiteStratum{
			Kernel: b.kernel, Section: key.section, Class: key.class, Live: key.live,
		})
	}
	s := &b.strat[h]
	if n := len(s.intervals); n > 0 && s.intervals[n-1].hi == lo-1 {
		s.intervals[n-1].hi = hi
	} else {
		s.intervals = append(s.intervals, armInterval{lo, hi})
	}
	s.Sites += hi - lo + 1
}

// OpenSpan is the span of a builder fed while the golden run that
// fixes the arm-cycle space is still running: it keeps every event,
// and FinishSpan bounds the enumeration once the window is known.
const OpenSpan = math.MaxInt64

// FinishSpan seals an enumeration begun with OpenSpan at the arm-cycle
// space [0, span). Arm cycles at or past span are dropped, and with them
// any stratum left without one, so the map equals what a builder
// created with that span and fed the same events would produce: there
// the first event past the span owns up to span-1 and later ones own
// nothing. Observe must not be called afterwards.
func (b *StrataBuilder) FinishSpan(span int64) *StrataMap {
	w := b.walk
	w.span = span
	if w.prev >= span {
		w.prev = span - 1
		var kept []SiteStratum
		for _, s := range b.strat {
			ivs := s.intervals[:0]
			s.Sites = 0
			for _, iv := range s.intervals {
				if iv.lo >= span {
					break // intervals ascend
				}
				iv.hi = min(iv.hi, span-1)
				ivs = append(ivs, iv)
				s.Sites += iv.hi - iv.lo + 1
			}
			if len(ivs) > 0 {
				s.intervals = ivs
				kept = append(kept, s)
			}
		}
		b.strat = kept
	}
	return b.Finish()
}

// Finish seals the enumeration: strata are sorted by (Section, Class,
// Live), cumulative interval counts are built for ArmAt, and the
// no-injection tail is computed.
func (b *StrataBuilder) Finish() *StrataMap {
	sort.Slice(b.strat, func(i, j int) bool {
		if b.strat[i].Section != b.strat[j].Section {
			return b.strat[i].Section < b.strat[j].Section
		}
		if b.strat[i].Class != b.strat[j].Class {
			return b.strat[i].Class < b.strat[j].Class
		}
		return b.strat[i].Live < b.strat[j].Live
	})
	for i := range b.strat {
		s := &b.strat[i]
		s.cum = make([]int64, len(s.intervals))
		total := int64(0)
		for j, iv := range s.intervals {
			total += iv.hi - iv.lo + 1
			s.cum[j] = total
		}
	}
	return &StrataMap{
		Kernel: b.kernel, Span: b.walk.span,
		NoInjectionSites: b.walk.NoInjection(),
		Strata:           b.strat,
	}
}
