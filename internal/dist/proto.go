// Package dist is the fault-tolerant distributed campaign service: an
// HTTP coordinator that shards a campaign's trial index range across
// worker processes, hands shards out as leases with deadlines and
// heartbeats, re-leases a shard when its worker dies or stalls (with
// capped exponential backoff, and a poison-shard quarantine after
// repeated failures so one pathological trial range cannot wedge the
// campaign), persists per-shard JSONL event streams plus coordinator
// checkpoints so a killed coordinator resumes from disk, and merges the
// shard streams with campaign.Replay into a report byte-identical to
// the single-process run — or an explicitly-accounted partial report
// when shards are unreachable.
//
// Everything rides on the campaign package's determinism: trial t of
// benchmark b is the same trial on any worker (campaign.Config.TrialSpec),
// and workers stream exactly the JSONL trial lines the in-process
// streamer would have written (campaign.MarshalTrialEvent), so merging
// is replay, not re-aggregation. The campaign's description is
// campaign.Identity: the coordinator serves it and checkpoints it, and
// every side resolves it with campaignflag.Resolve. The set-up is the
// campaign package's too: the coordinator and every worker run
// campaign.Config.Prepare, workers run their trials on a
// campaign.Executor, and the merged stream opens with the set-up lines
// campaign.WriteSetup writes.
//
// The live view is replay too: the coordinator decodes every accepted
// line with campaign.DecodeTrial and folds it into one
// campaign.BenchReport per benchmark, the fold the merged report
// replays. /metrics, /v1/status and the ci_target early stop read those
// reports, so the live counts equal the final report's over the same
// lines, and a line the fold cannot use is never persisted.
//
// Worker trust follows the teaMPI/SWE team-replication pattern: every
// worker runs the same fault-free golden runs the coordinator ran and
// votes with a hash of (window, initial memory, final memory) per
// benchmark; a worker whose hashes disagree with the majority is
// rejected as corrupted before it can lease a shard.
package dist

import (
	"encoding/json"

	"flame/internal/campaign"
)

// CampaignInfo is the earlier name of campaign.Identity, kept for
// perfbench.
type CampaignInfo = campaign.Identity

// InfoFromConfig is the earlier name of Config.Identity, kept for
// perfbench.
func InfoFromConfig(cfg *campaign.Config) CampaignInfo { return cfg.Identity() }

// GoldenSig is one benchmark's golden-run signature: the fault-free
// window and a hash over (window, initial memory, final memory). Two
// healthy replicas of the same campaign produce identical signatures;
// a corrupted worker does not.
type GoldenSig struct {
	Window int64  `json:"window"`
	Hash   string `json:"hash"`
}

// JoinRequest registers a worker and casts its golden-run votes.
type JoinRequest struct {
	Worker  string               `json:"worker"`
	Goldens map[string]GoldenSig `json:"goldens"`
}

// JoinResponse accepts or rejects the worker.
type JoinResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// LeaseRequest asks for a shard.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a shard lease, asks the worker to retry later,
// or reports the campaign finished.
type LeaseResponse struct {
	// Done: no shard will ever be available again; the worker may exit.
	Done bool `json:"done,omitempty"`
	// RetryMS: nothing leasable right now (all shards out or backing
	// off); ask again after this many milliseconds.
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Shard + lease terms, when granted.
	Shard   *campaign.Shard `json:"shard,omitempty"`
	LeaseID string          `json:"lease_id,omitempty"`
	// Attempt is 1 for a shard's first lease, higher after failed
	// leases — workers log it so a retried shard is visible in flameworker
	// progress output.
	Attempt     int   `json:"attempt,omitempty"`
	DeadlineMS  int64 `json:"deadline_ms,omitempty"`  // lease TTL
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"` // expected cadence
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	// Done is the worker's progress (trials finished), for status only.
	Done int `json:"done"`
}

// HeartbeatResponse renews or cancels.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Cancel tells the worker its lease is gone (expired and re-leased);
	// it must abandon the shard.
	Cancel bool `json:"cancel,omitempty"`
}

// EventsRequest streams a batch of trial JSONL lines for a leased
// shard. Lines are opaque to the transport; the coordinator validates
// and appends them to the shard's stream file.
type EventsRequest struct {
	LeaseID string            `json:"lease_id"`
	Lines   []json.RawMessage `json:"lines"`
}

// EventsResponse acknowledges the append.
type EventsResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest declares a leased shard fully streamed.
type CompleteRequest struct {
	LeaseID string `json:"lease_id"`
}

// CompleteResponse accepts (the coordinator verified every trial of the
// range is on disk) or rejects the completion.
type CompleteResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// ReleaseRequest hands a lease back without penalty (graceful worker
// shutdown): the shard returns to the pending pool immediately.
type ReleaseRequest struct {
	LeaseID string `json:"lease_id"`
}

// ShardStatus describes one shard in the status report.
type ShardStatus struct {
	Shard campaign.Shard `json:"shard"`
	State string         `json:"state"`
	// Retries counts failed leases (expiries and short completions).
	Retries int    `json:"retries,omitempty"`
	Worker  string `json:"worker,omitempty"`
	// LeaseAgeSec is how long the current lease has been out (leased
	// shards only) — a stalling worker shows up as a growing age with a
	// flat Done.
	LeaseAgeSec float64 `json:"lease_age_sec,omitempty"`
	Done        int     `json:"done"` // distinct trials on disk
}

// StatusResponse is the live progress view served at /v1/status,
// including the fleet coverage interval over the trials persisted so far.
type StatusResponse struct {
	Benchmarks  []string       `json:"benchmarks"`
	TotalTrials int            `json:"total_trials"`
	DoneTrials  int            `json:"done_trials"`
	Tallies     map[string]int `json:"tallies,omitempty"`
	// Coverage of injected trials streamed so far, with its Wilson 95%
	// interval — the live counterpart of the final report's CI.
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_lo"`
	CoverageHi float64 `json:"coverage_hi"`

	Pending     int `json:"shards_pending"`
	Leased      int `json:"shards_leased"`
	DoneShards  int `json:"shards_done"`
	Quarantined int `json:"shards_quarantined"`
	Cancelled   int `json:"shards_cancelled,omitempty"`

	// EarlyStopped lists benchmarks whose CIs converged under the
	// campaign's ci_target, cancelling their remaining pending shards.
	EarlyStopped []string `json:"early_stopped,omitempty"`

	Workers       []string      `json:"workers,omitempty"`
	BannedWorkers []string      `json:"banned_workers,omitempty"`
	Complete      bool          `json:"complete"`
	Degraded      bool          `json:"degraded"`
	ElapsedSec    float64       `json:"elapsed_sec"`
	Shards        []ShardStatus `json:"shards,omitempty"`
}

// FinalReport is the coordinator's end product: the merged report, the
// merge's integrity accounting, and the explicit list of quarantined
// shards when the campaign degraded instead of completing.
type FinalReport struct {
	Report    *campaign.Report    `json:"report"`
	Integrity *campaign.Integrity `json:"integrity"`
	// Complete: every shard finished (or was deliberately cancelled by a
	// CI-target early stop) and the merge was clean — the only missing
	// trials are the cancelled remainder. With no early stop this
	// degenerates to the original guarantee: zero missing trials and a
	// report byte-identical to a single-process run of the same config.
	Complete bool `json:"complete"`
	// Quarantined lists the poison shards excluded from the report.
	Quarantined []campaign.Shard `json:"quarantined,omitempty"`
	// Cancelled lists shards whose trials were deliberately skipped
	// because their benchmark's CI converged under ci_target.
	Cancelled []campaign.Shard `json:"cancelled,omitempty"`
	// EarlyStopped lists the converged benchmarks.
	EarlyStopped []string `json:"early_stopped,omitempty"`
}
