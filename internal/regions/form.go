// Package regions implements idempotent region formation: partitioning a
// kernel into regions that contain no memory or predicate
// anti-dependences (register anti-dependences are reported for the
// renaming or checkpointing pass to repair), treating synchronization
// primitives as region boundaries, and optionally applying the paper's
// Section III-E region-extension optimization that elides barrier-induced
// boundaries inside qualifying shared-memory sections.
package regions

import (
	"fmt"

	"flame/internal/analysis"
	"flame/internal/isa"
	"flame/internal/kernel"
)

// Options configures region formation.
type Options struct {
	// ExtendAcrossBarriers enables the Section III-E optimization: inside
	// a section whose stores all target block-local shared memory and
	// that starts by initializing that shared memory, barrier-induced
	// boundaries are elided and the section becomes one extended region
	// verified collectively per thread block.
	ExtendAcrossBarriers bool
}

// Section is an instruction span [Start, End) in which barrier boundaries
// were elided; it must be verified collectively for all warps of a block.
type Section struct {
	Start int
	End   int
	// Barriers are the instruction indices of the elided barriers.
	Barriers []int
}

// Contains reports whether instruction i lies in the section.
func (s Section) Contains(i int) bool { return i >= s.Start && i < s.End }

// Result is the outcome of region formation.
type Result struct {
	// Prog is the input program with Boundary annotations set.
	Prog *isa.Program
	// RegWARs are the remaining register and predicate anti-dependences
	// that boundaries cannot cut; the renaming or checkpointing pass must
	// repair them.
	RegWARs []analysis.Violation
	// Sections are the extended regions created by the optimization
	// (empty unless Options.ExtendAcrossBarriers).
	Sections []Section
	// StaticRegions is the number of static region starts.
	StaticRegions int
	// ElidedBarriers counts barrier boundaries removed by the optimization.
	ElidedBarriers int
}

const maxFormIterations = 64

// Form partitions the program into idempotent regions, mutating the
// program's Boundary annotations. It returns the remaining register
// anti-dependences for the recovery pass to handle.
func Form(p *isa.Program, opts Options) (*Result, error) {
	g := kernel.Build(p)
	rd := analysis.ComputeReachDefs(g)
	aa := analysis.NewAddrAnalysis(p, rd)
	sc := analysis.NewScanner(p, g, aa)

	n := len(p.Insts)
	boundary := make([]bool, n)

	// Synchronization primitives are region boundaries: a boundary before
	// the primitive and one after it, so the primitive is its own region.
	for i := range p.Insts {
		if p.Insts[i].Op.IsSync() {
			boundary[i] = true
			if i+1 < n {
				boundary[i+1] = true
			}
		}
	}

	// Cut memory and predicate anti-dependences by placing a boundary
	// immediately before each offending write, to fixpoint.
	regWARs, err := cutToFixpoint(sc, boundary, n, nil)
	if err != nil {
		return nil, err
	}

	res := &Result{Prog: p, RegWARs: regWARs}

	if opts.ExtendAcrossBarriers {
		sections := detectSections(p, sc, boundary)
		if len(sections) > 0 {
			for _, s := range sections {
				for _, b := range s.Barriers {
					boundary[b] = false
					if b+1 < n {
						boundary[b+1] = false
					}
					res.ElidedBarriers++
				}
			}
			// Re-cut: eliding boundaries can re-expose anti-dependences.
			// Violations whose store must-aliases a section's init store
			// (per-thread WARAW across the elided barrier) are tolerated:
			// collective recovery replays the whole section per block.
			res.RegWARs, err = cutToFixpoint(sc, boundary, n, sections)
			if err != nil {
				return nil, err
			}
			res.Sections = sections
		}
	}

	for i := range p.Insts {
		p.Insts[i].Boundary = boundary[i]
	}
	res.StaticRegions = countStaticRegions(boundary)
	return res, nil
}

// cutToFixpoint repeatedly scans and inserts boundaries before offending
// stores/setps until only register anti-dependences remain. Memory
// violations exempted by a section's shared-memory pattern are skipped.
func cutToFixpoint(sc *analysis.Scanner, boundary []bool, n int, sections []Section) ([]analysis.Violation, error) {
	for iter := 0; ; iter++ {
		if iter >= maxFormIterations {
			return nil, fmt.Errorf("regions: boundary placement did not converge after %d iterations", maxFormIterations)
		}
		vs := sc.Scan(boundary)
		changed := false
		var regWARs []analysis.Violation
		for _, v := range vs {
			switch v.Kind {
			case analysis.MemWAR:
				if inExemptSection(sc, v, sections) {
					continue
				}
				if !boundary[v.At] {
					boundary[v.At] = true
					changed = true
				}
			case analysis.PredWAR:
				if !boundary[v.At] {
					boundary[v.At] = true
					changed = true
				}
			case analysis.RegWAR:
				regWARs = append(regWARs, v)
			}
		}
		if !changed {
			return regWARs, nil
		}
	}
}

// inExemptSection reports whether the memory violation is the tolerated
// shared-memory pattern inside an extended section: both the load and the
// store lie in the section and the store targets shared memory.
func inExemptSection(sc *analysis.Scanner, v analysis.Violation, sections []Section) bool {
	if v.Kind != analysis.MemWAR {
		return false
	}
	for _, s := range sections {
		if s.Contains(v.At) && s.Contains(v.Load) && sc.Addr(v.At).Space == isa.SpaceShared {
			return true
		}
	}
	return false
}

// countStaticRegions counts region starts: the entry plus every boundary.
func countStaticRegions(boundary []bool) int {
	n := 1
	for _, b := range boundary {
		if b {
			n++
		}
	}
	return n
}

// StaticRegionSizes returns the instruction counts of the straight-line
// spans between consecutive region starts (a static approximation of
// region size used for reporting; dynamic sizes come from the simulator).
func StaticRegionSizes(p *isa.Program) []int {
	starts := p.RegionStarts()
	sizes := make([]int, 0, len(starts))
	for i, s := range starts {
		end := len(p.Insts)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		sizes = append(sizes, end-s)
	}
	return sizes
}
