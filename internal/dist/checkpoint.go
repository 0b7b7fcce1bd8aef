package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"flame/internal/campaign"
)

// On-disk layout of a coordinator state dir:
//
//	checkpoint.json   — epoch, campaign info, per-shard state/fails
//	shard-0007.jsonl  — trial event lines streamed for shard 7
//
// The shard streams are the ground truth (they are appended before the
// coordinator acknowledges a batch); the checkpoint carries the
// scheduling metadata that cannot be derived from them — epoch, failure
// counts, quarantine decisions. A coordinator that crashes between a
// stream append and a checkpoint write loses nothing: resume rescans
// the streams and re-derives trial progress.

// shardCkpt is one shard's persisted scheduling state. The trial range
// itself is not persisted — PlanShards is deterministic, so a restarted
// coordinator recomputes the identical plan and joins on shard ID.
type shardCkpt struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Fails int    `json:"fails,omitempty"`
}

// checkpointData is checkpoint.json.
type checkpointData struct {
	Epoch int               `json:"epoch"`
	Info  campaign.Identity `json:"info"`
	// LeaseSeq persists the lease counter so flame_leases_granted_total
	// stays monotone across coordinator restarts (lease IDs were already
	// unique across restarts via the epoch).
	LeaseSeq int         `json:"lease_seq,omitempty"`
	Shards   []shardCkpt `json:"shards"`
}

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// shardFilePath names shard id's event stream file.
func shardFilePath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.jsonl", id))
}

// loadCheckpoint reads checkpoint.json; a missing file is a fresh start
// (nil, nil).
func loadCheckpoint(dir string) (*checkpointData, error) {
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ck checkpointData
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("dist: corrupt checkpoint %s: %w", checkpointPath(dir), err)
	}
	return &ck, nil
}

// saveCheckpoint is the unlocked-entry wrapper around
// saveCheckpointLocked for use during construction.
func (c *Coordinator) saveCheckpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveCheckpointLocked()
}

// saveCheckpointLocked writes checkpoint.json atomically (temp file +
// rename), so a crash mid-write leaves the previous checkpoint intact.
// Leased shards are persisted as pending: a restarted coordinator has
// no live workers to honor the old leases, and their IDs carry the old
// epoch so stale traffic is rejected anyway.
func (c *Coordinator) saveCheckpointLocked() error {
	ck := checkpointData{Epoch: c.epoch, Info: c.cc.Info, LeaseSeq: c.leaseSeq}
	for _, sc := range c.shards {
		st := sc.state
		if st == stateLeased {
			st = statePending
		}
		ck.Shards = append(ck.Shards, shardCkpt{ID: sc.shard.ID, State: st, Fails: sc.fails})
	}
	data, err := json.MarshalIndent(&ck, "", "  ")
	if err != nil {
		return err
	}
	tmp := checkpointPath(c.cc.StateDir) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, checkpointPath(c.cc.StateDir))
}

// appendShardFile appends validated event lines to a shard stream.
func appendShardFile(path string, lines []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(lines); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanShardFile rebuilds shard sc's progress from its stream on disk,
// folding each line through foldLine as handleEvents did when it
// arrived. Lines foldLine rejects (a torn final write from a crash) are
// skipped; the merge-time ReplayIntegrity accounts for them.
func (c *Coordinator) scanShardFile(sc *shardCtl) error {
	path := shardFilePath(c.cc.StateDir, sc.shard.ID)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for scan.Scan() {
		_, _ = c.foldLine(sc, scan.Bytes()) // rejected lines are skipped, see above
	}
	if err := scan.Err(); err != nil {
		return fmt.Errorf("dist: scan %s: %w", path, err)
	}
	return nil
}
