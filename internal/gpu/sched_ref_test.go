package gpu

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// The list-based schedulers below are the reference the mask-based
// policies are checked against (TestPickMatchesReference): each takes
// the ready warps as a list of ascending slot indices and states its
// policy in the plainest form.

// refGTO: greedy-then-oldest. Keep issuing the same warp until it
// stalls; then switch to the oldest ready warp.
type refGTO struct {
	current int // warp index currently run greedily, -1 if none
}

func (s *refGTO) pick(warps []*Warp, ready []int, cycle int64) int {
	for _, i := range ready {
		if i == s.current {
			return i
		}
	}
	// Greedy warp stalled: pick the oldest ready warp.
	best := -1
	var bestAge int64
	for _, i := range ready {
		if best == -1 || warps[i].Age < bestAge {
			best, bestAge = i, warps[i].Age
		}
	}
	s.current = best
	return best
}

func (s *refGTO) reset() { s.current = -1 }

// refOLD: always the oldest ready warp.
type refOLD struct{}

func (refOLD) pick(warps []*Warp, ready []int, cycle int64) int {
	best := -1
	var bestAge int64
	for _, i := range ready {
		if best == -1 || warps[i].Age < bestAge {
			best, bestAge = i, warps[i].Age
		}
	}
	return best
}

func (refOLD) reset() {}

// refLRR: loose round-robin over ready warps.
type refLRR struct {
	last int
}

func (s *refLRR) pick(warps []*Warp, ready []int, cycle int64) int {
	if len(ready) == 0 {
		return -1
	}
	best := -1
	// The smallest index strictly greater than last, wrapping around.
	for _, i := range ready {
		if i > s.last && (best == -1 || i < best) {
			best = i
		}
	}
	if best == -1 {
		for _, i := range ready {
			if best == -1 || i < best {
				best = i
			}
		}
	}
	s.last = best
	return best
}

func (s *refLRR) reset() {}

// refTwoLevel: a small active set scheduled round-robin; warps that
// stall are swapped out for pending warps.
type refTwoLevel struct {
	group  int
	active []int
	rr     int
}

func (s *refTwoLevel) pick(warps []*Warp, ready []int, cycle int64) int {
	if s.group <= 0 {
		s.group = 8
	}
	readySet := map[int]bool{}
	for _, i := range ready {
		readySet[i] = true
	}
	// Drop finished or stalled-too-long warps from the active set.
	keep := s.active[:0]
	for _, i := range s.active {
		if i < len(warps) && !warps[i].Finished && (readySet[i] || cycle-warps[i].LastIssue < 8) {
			keep = append(keep, i)
		}
	}
	s.active = keep
	// Refill from ready warps not in the set, oldest first.
	for len(s.active) < s.group {
		best := -1
		var bestAge int64
		for _, i := range ready {
			inSet := false
			for _, a := range s.active {
				if a == i {
					inSet = true
					break
				}
			}
			if inSet {
				continue
			}
			if best == -1 || warps[i].Age < bestAge {
				best, bestAge = i, warps[i].Age
			}
		}
		if best == -1 {
			break
		}
		s.active = append(s.active, best)
	}
	if len(s.active) == 0 {
		return -1
	}
	// Round-robin within the active set.
	for k := 1; k <= len(s.active); k++ {
		cand := s.active[(s.rr+k)%len(s.active)]
		if readySet[cand] {
			s.rr = (s.rr + k) % len(s.active)
			return cand
		}
	}
	return -1
}

func (s *refTwoLevel) reset() { s.active = s.active[:0] }

// TestPickMatchesReference drives each mask-based policy and its list
// reference through the same random sequences of ready sets, warp ages
// and issue cycles, finishing and replacing picked warps as the SM
// does, and requires the same pick and the same policy state at every
// step.
func TestPickMatchesReference(t *testing.T) {
	type policy struct {
		name  string
		mask  func() scheduler
		ref   func() refScheduler
		state func(s scheduler, r refScheduler) (got, want string)
	}
	policies := []policy{
		{"GTO", func() scheduler { return &gtoSched{current: -1} }, func() refScheduler { return &refGTO{current: -1} },
			func(s scheduler, r refScheduler) (string, string) {
				return fmt.Sprint(s.(*gtoSched).current), fmt.Sprint(r.(*refGTO).current)
			}},
		{"OLD", func() scheduler { return oldSched{} }, func() refScheduler { return refOLD{} },
			func(scheduler, refScheduler) (string, string) { return "", "" }},
		{"LRR", func() scheduler { return &lrrSched{} }, func() refScheduler { return &refLRR{} },
			func(s scheduler, r refScheduler) (string, string) {
				return fmt.Sprint(s.(*lrrSched).last), fmt.Sprint(r.(*refLRR).last)
			}},
		{"TwoLevel", func() scheduler { return &twoLevelSched{group: 4} }, func() refScheduler { return &refTwoLevel{group: 4} },
			twoLevelState},
		{"TwoLevel-default", func() scheduler { return &twoLevelSched{} }, func() refScheduler { return &refTwoLevel{} },
			twoLevelState},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, uint64(len(p.name))))
			for seq := 0; seq < 200; seq++ {
				n := 1 + rng.IntN(64)
				var age int64
				warps := make([]*Warp, n)
				for i := range warps {
					// Ages repeat across slots now and then, so ties are
					// exercised too.
					warps[i] = &Warp{ID: i, Age: age + rng.Int64N(3)}
					age++
				}
				// The scheduler's partition: every k-th slot from an offset.
				k := 1 + rng.IntN(4)
				var part uint64
				for i := rng.IntN(k); i < n; i += k {
					part |= 1 << uint(i)
				}
				s, r := p.mask(), p.ref()
				var cycle int64
				for step := 0; step < 60; step++ {
					cycle += 1 + rng.Int64N(12)
					ready := rng.Uint64() & rng.Uint64() & part
					if rng.IntN(4) == 0 {
						ready = rng.Uint64() & part
					}
					var list []int
					for m := ready; m != 0; m &= m - 1 {
						list = append(list, bits.TrailingZeros64(m))
					}
					got, want := s.pick(warps, ready, cycle), r.pick(warps, list, cycle)
					if got != want {
						t.Fatalf("seq %d step %d: ready %#x: pick %d, reference %d", seq, step, ready, got, want)
					}
					if gs, ws := p.state(s, r); gs != ws {
						t.Fatalf("seq %d step %d: ready %#x: state %s, reference %s", seq, step, ready, gs, ws)
					}
					if got < 0 {
						continue
					}
					warps[got].LastIssue = cycle
					if rng.IntN(8) == 0 {
						// The warp finished: the SM retires it and resets
						// the policy, and a new warp later takes the slot.
						warps[got].Finished = true
						s.reset()
						r.reset()
						warps[got] = &Warp{ID: got, Age: age}
						age++
					}
				}
			}
		})
	}
}

// twoLevelState formats both two-level policies' state for comparison.
func twoLevelState(s scheduler, r refScheduler) (got, want string) {
	a, b := s.(*twoLevelSched), r.(*refTwoLevel)
	return fmt.Sprint(a.group, a.active, a.rr), fmt.Sprint(b.group, b.active, b.rr)
}

// refScheduler is the list-based form of the scheduler interface.
type refScheduler interface {
	pick(warps []*Warp, ready []int, cycle int64) int
	reset()
}
