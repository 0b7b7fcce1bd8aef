package campaign

import (
	"encoding/json"
	"fmt"

	"flame/internal/core"
)

// Sharding: a campaign's trial grid is a pure function of (seed,
// benchmark, trial index), so any partition of the index space can run
// anywhere — a Shard names one contiguous range of one benchmark's
// trials. The distributed coordinator (internal/dist) hands shards out
// as leases, workers stream each trial back as exactly the JSONL line
// the in-process streamer would have written (MarshalTrialEvent), and
// the merged stream replays into a report byte-identical to the
// single-process run.

// Shard is a contiguous trial index range [Lo, Hi) of one benchmark.
type Shard struct {
	ID    int    `json:"id"`
	Bench string `json:"bench"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
}

// Trials returns the number of trials in the shard.
func (s Shard) Trials() int { return s.Hi - s.Lo }

// String renders "shard 3: SGEMM[50,75)".
func (s Shard) String() string {
	return fmt.Sprintf("shard %d: %s[%d,%d)", s.ID, s.Bench, s.Lo, s.Hi)
}

// PlanShards cuts a campaign's trial grid — trials per benchmark, in
// benchmark order — into shards of at most size trials each (size <= 0
// selects 25). Shard IDs are dense and deterministic: the same inputs
// always produce the same plan, so a restarted coordinator recomputes
// it instead of persisting it.
func PlanShards(benches []string, trials, size int) []Shard {
	if size <= 0 {
		size = 25
	}
	var out []Shard
	for _, b := range benches {
		for lo := 0; lo < trials; lo += size {
			hi := lo + size
			if hi > trials {
				hi = trials
			}
			out = append(out, Shard{ID: len(out), Bench: b, Lo: lo, Hi: hi})
		}
	}
	return out
}

// MarshalTrialEvent renders a trial JSONL line (newline included)
// exactly as Run's streamer writes it — every field the report
// aggregation consumes, so shard streams replay byte-identically.
func MarshalTrialEvent(bench string, t int, r *core.TrialResult) ([]byte, error) {
	data, err := json.Marshal(newTrialEvent(bench, t, r))
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
