package gpu

import (
	"math/bits"
	"slices"
)

// scheduler picks which ready warp a scheduler slot issues each cycle.
// pick receives the SM's warp slots and the ready set as a mask over
// them (bit i is warps[i]; only the scheduler's partition has bits set)
// and returns the chosen slot, or -1.
type scheduler interface {
	pick(warps []*Warp, ready uint64, cycle int64) int
	// reset tells the policy that the warp it just issued finished and
	// left its slot.
	reset()
	// clone returns an independent copy of the policy state
	// (Device.CopyFrom).
	clone() scheduler
}

func newScheduler(kind SchedulerKind, groupSize int) scheduler {
	switch kind {
	case LRR:
		return &lrrSched{}
	case OLD:
		return &oldSched{}
	case TwoLevel:
		return &twoLevelSched{group: groupSize}
	default:
		return &gtoSched{current: -1}
	}
}

// oldest returns the slot in m holding the oldest warp (smallest Age),
// the lowest such slot on a tie, or -1 if m is empty.
func oldest(warps []*Warp, m uint64) int {
	best := -1
	var bestAge int64
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if best == -1 || warps[i].Age < bestAge {
			best, bestAge = i, warps[i].Age
		}
	}
	return best
}

// gtoSched: greedy-then-oldest. Keep issuing the same warp until it
// stalls; then switch to the oldest ready warp.
type gtoSched struct {
	current int // warp index currently run greedily, -1 if none
}

func (s *gtoSched) pick(warps []*Warp, ready uint64, cycle int64) int {
	if s.current >= 0 && ready&(1<<uint(s.current)) != 0 {
		return s.current
	}
	// Greedy warp stalled: pick the oldest ready warp.
	s.current = oldest(warps, ready)
	return s.current
}

func (s *gtoSched) reset() { s.current = -1 }

func (s *gtoSched) clone() scheduler { c := *s; return &c }

// oldSched: always the oldest ready warp.
type oldSched struct{}

func (oldSched) pick(warps []*Warp, ready uint64, cycle int64) int {
	return oldest(warps, ready)
}

func (oldSched) reset() {}

func (oldSched) clone() scheduler { return oldSched{} }

// lrrSched: loose round-robin over ready warps.
type lrrSched struct {
	last int
}

func (s *lrrSched) pick(warps []*Warp, ready uint64, cycle int64) int {
	if ready == 0 {
		return -1
	}
	// The lowest ready slot above last, wrapping around.
	m := ready &^ (uint64(2)<<uint(s.last) - 1)
	if m == 0 {
		m = ready
	}
	s.last = bits.TrailingZeros64(m)
	return s.last
}

func (s *lrrSched) reset() {}

func (s *lrrSched) clone() scheduler { c := *s; return &c }

// twoLevelSched: a small active set scheduled round-robin; warps that
// stall are swapped out for pending warps.
type twoLevelSched struct {
	group  int
	active []int
	rr     int
}

func (s *twoLevelSched) pick(warps []*Warp, ready uint64, cycle int64) int {
	if s.group <= 0 {
		s.group = 8
	}
	// Drop finished or stalled-too-long warps from the active set.
	var in uint64
	keep := s.active[:0]
	for _, i := range s.active {
		if i < len(warps) && !warps[i].Finished && (ready&(1<<uint(i)) != 0 || cycle-warps[i].LastIssue < 8) {
			keep = append(keep, i)
			in |= 1 << uint(i)
		}
	}
	s.active = keep
	// Refill from ready warps not in the set, oldest first.
	for len(s.active) < s.group {
		best := oldest(warps, ready&^in)
		if best == -1 {
			break
		}
		s.active = append(s.active, best)
		in |= 1 << uint(best)
	}
	if len(s.active) == 0 {
		return -1
	}
	// Round-robin within the active set.
	for k := 1; k <= len(s.active); k++ {
		j := (s.rr + k) % len(s.active)
		if cand := s.active[j]; ready&(1<<uint(cand)) != 0 {
			s.rr = j
			return cand
		}
	}
	return -1
}

func (s *twoLevelSched) reset() { s.active = s.active[:0] }

func (s *twoLevelSched) clone() scheduler {
	c := *s
	c.active = slices.Clone(s.active)
	return &c
}
