package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
	"flame/internal/stats"
)

// Shard lifecycle states. A shard starts pending, is leased to one
// worker at a time, and ends done (every trial of its range persisted),
// quarantined (too many failed leases — a poison range excluded from
// the campaign so it cannot wedge the fleet), or cancelled (its
// benchmark's live CI converged under the campaign's ci_target, so the
// remaining trials are deliberately skipped).
const (
	statePending     = "pending"
	stateLeased      = "leased"
	stateDone        = "done"
	stateQuarantined = "quarantined"
	stateCancelled   = "cancelled"
)

// CoordConfig configures a Coordinator.
type CoordConfig struct {
	// Info is the campaign's identity. Workers fetch it verbatim from
	// /v1/campaign and resolve the same campaign.Config from it
	// (campaignflag.Resolve), so both sides derive identical trials.
	Info campaign.Identity
	// StateDir holds checkpoint.json and the per-shard event streams.
	// A coordinator restarted on a non-empty StateDir resumes from it.
	StateDir string
	// ShardSize is the max trials per shard (<= 0 selects 25).
	ShardSize int
	// LeaseTTL is how long a lease lives without a heartbeat before the
	// shard is re-leased (default 15s). Workers are told to renew at a
	// third of it.
	LeaseTTL time.Duration
	// QuarantineAfter quarantines a shard after this many failed leases
	// (default 3).
	QuarantineAfter int
	// BackoffBase/BackoffCap shape the capped exponential re-lease
	// backoff: fail n waits base<<(n-1), capped (defaults 250ms / 15s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// shardCtl is a shard plus its scheduling state.
type shardCtl struct {
	shard     campaign.Shard
	state     string
	fails     int
	notBefore time.Time // pending shard not leasable before this
	leaseID   string
	worker    string
	leasedAt  time.Time // when the current lease was granted, status only
	deadline  time.Time
	progress  int          // worker-reported trials finished, status only
	seen      map[int]bool // distinct trial indices persisted to disk
}

// Coordinator shards a campaign across workers, survives their deaths
// (lease expiry + re-lease) and its own (checkpoint + shard streams on
// disk), and merges the result.
type Coordinator struct {
	cc  CoordConfig
	cfg campaign.Config
	// set is the campaign's set-up, the same every worker replicates:
	// the goldens anchor the hash vote, and the set-up lines head the
	// merged stream, prune fallbacks included (their reasons are
	// deterministic in (arch, spec, golden), so they agree with every
	// worker's). Only disabled prune indexes are kept.
	set  []core.Setup
	sigs map[string]GoldenSig

	mu       sync.Mutex
	epoch    int // bumped every coordinator start; part of lease IDs
	leaseSeq int
	shards   []*shardCtl
	leases   map[string]*shardCtl
	workers  map[string]string // name -> "" (ok) or ban reason
	doneSeen map[string]bool   // workers that received a Done lease reply
	// live folds every persisted trial line into its benchmark's report
	// row, the same fold the merged report replays; /metrics,
	// /v1/status and the ci_target early stop read it. Each row carries
	// its benchmark's prune fallback reason from the set-up.
	live     map[string]*campaign.BenchReport
	stopped  map[string]bool // benchmarks early-stopped by ci_target
	finished bool
	final    *FinalReport
	done     chan struct{}
	started  time.Time
}

// NewCoordinator builds a coordinator: reconstructs the campaign,
// runs the golden references (they anchor both the merged stream and
// the worker hash vote), plans the shards, and — when StateDir already
// holds a checkpoint — resumes shard states and rescans the shard
// streams so finished work is never redone.
func NewCoordinator(cc CoordConfig) (*Coordinator, error) {
	if cc.LeaseTTL <= 0 {
		cc.LeaseTTL = 15 * time.Second
	}
	if cc.QuarantineAfter <= 0 {
		cc.QuarantineAfter = 3
	}
	if cc.BackoffBase <= 0 {
		cc.BackoffBase = 250 * time.Millisecond
	}
	if cc.BackoffCap <= 0 {
		cc.BackoffCap = 15 * time.Second
	}
	if cc.Logf == nil {
		cc.Logf = func(string, ...any) {}
	}
	if cc.StateDir == "" {
		return nil, fmt.Errorf("dist: coordinator needs a state dir")
	}
	if err := os.MkdirAll(cc.StateDir, 0o755); err != nil {
		return nil, err
	}
	cfg, err := campaignflag.Resolve(cc.Info)
	if err != nil {
		return nil, fmt.Errorf("dist: bad campaign info: %w", err)
	}

	c := &Coordinator{
		cc: cc, cfg: cfg,
		sigs:     map[string]GoldenSig{},
		leases:   map[string]*shardCtl{},
		workers:  map[string]string{},
		doneSeen: map[string]bool{},
		live:     map[string]*campaign.BenchReport{},
		stopped:  map[string]bool{},
		done:     make(chan struct{}),
		started:  time.Now(),
	}
	if c.set, err = c.cfg.Prepare(); err != nil {
		return nil, fmt.Errorf("dist: set-up: %w", err)
	}
	benches := make([]string, len(cfg.Specs))
	for i, sp := range cfg.Specs {
		benches[i] = sp.Name
		c.sigs[sp.Name] = Signature(c.set[i].Golden)
		off := c.set[i].Prune.Disabled()
		if off != "" {
			cc.Logf("prune disabled for %s: %s", sp.Name, off)
		} else {
			// The coordinator runs no trials, and a live index's
			// recorded schedule is most of the set-up's memory; only a
			// disabled index's reason is needed, in the merged stream.
			c.set[i].Prune = nil
		}
		c.live[sp.Name] = &campaign.BenchReport{Benchmark: sp.Name, PruneDisabled: off}
	}
	for _, s := range campaign.PlanShards(benches, cfg.Trials, cc.ShardSize) {
		c.shards = append(c.shards, &shardCtl{shard: s, state: statePending, seen: map[int]bool{}})
	}

	if err := c.resume(); err != nil {
		return nil, err
	}
	c.epoch++
	if err := c.saveCheckpoint(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	// Re-evaluate the early-stop rule on resumed data: a campaign killed
	// after converging cancels its remaining pending shards before
	// leasing anything out, and a bench restored with cancelled shards
	// re-derives its stopped flag from the same (monotone) counts.
	for _, sp := range cfg.Specs {
		c.maybeEarlyStopLocked(sp.Name)
	}
	c.checkFinishedLocked()
	c.mu.Unlock()
	return c, nil
}

// resume loads the checkpoint (if any) and rescans every shard stream
// on disk, reconciling the two: the streams are the ground truth for
// which trials are persisted; the checkpoint carries epoch, failure
// counts, and quarantine decisions.
func (c *Coordinator) resume() error {
	ck, err := loadCheckpoint(c.cc.StateDir)
	if err != nil {
		return err
	}
	if ck != nil {
		// Mixing two campaigns' shard streams would merge garbage.
		if field, theirs, ours := ck.Info.Diff(&c.cc.Info); field != "" {
			return fmt.Errorf("dist: state dir holds a different campaign: %s is %v in the checkpoint, %v in this run", field, theirs, ours)
		}
		c.epoch = ck.Epoch
		c.leaseSeq = ck.LeaseSeq
		byID := map[int]shardCkpt{}
		for _, s := range ck.Shards {
			byID[s.ID] = s
		}
		for _, sc := range c.shards {
			if s, ok := byID[sc.shard.ID]; ok {
				sc.fails = s.Fails
				if s.State == stateQuarantined || s.State == stateCancelled {
					sc.state = s.State
				}
				// done and leased both re-verify against the stream below.
			}
		}
	}
	for _, sc := range c.shards {
		if err := c.scanShardFile(sc); err != nil {
			return err
		}
		if sc.state != stateQuarantined && len(sc.seen) == sc.shard.Trials() {
			sc.state = stateDone
		}
		if len(sc.seen) > 0 || sc.state != statePending {
			c.cc.Logf("resume: %s state=%s trials-on-disk=%d/%d fails=%d",
				sc.shard, sc.state, len(sc.seen), sc.shard.Trials(), sc.fails)
		}
	}
	return nil
}

// Run drives the lease sweeper until ctx is done. Serve the Handler
// concurrently; Run only expires stale leases.
func (c *Coordinator) Run(ctx context.Context) {
	tick := c.cc.LeaseTTL / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

// sweep expires leases whose deadline passed: their workers are
// presumed dead or wedged, so the shards go back to the pool with a
// failure strike.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for id, sc := range c.leases {
		if now.After(sc.deadline) {
			c.cc.Logf("lease %s expired (%s, worker %q, %d/%d trials streamed)",
				id, sc.shard, sc.worker, len(sc.seen), sc.shard.Trials())
			delete(c.leases, id)
			c.failShardLocked(sc, now)
			changed = true
		}
	}
	if changed {
		c.checkpointAndCheckLocked()
	}
}

// failShardLocked records a failed lease: backoff, then quarantine
// after QuarantineAfter strikes.
func (c *Coordinator) failShardLocked(sc *shardCtl, now time.Time) {
	sc.leaseID, sc.worker, sc.progress = "", "", 0
	sc.fails++
	if sc.fails >= c.cc.QuarantineAfter {
		sc.state = stateQuarantined
		c.cc.Logf("%s quarantined after %d failed leases (poison shard)", sc.shard, sc.fails)
		return
	}
	sc.state = statePending
	sc.notBefore = now.Add(c.backoff(sc.fails))
}

// backoff returns the capped exponential re-lease delay for the n-th
// failure.
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.cc.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= c.cc.BackoffCap {
			return c.cc.BackoffCap
		}
	}
	if d > c.cc.BackoffCap {
		d = c.cc.BackoffCap
	}
	return d
}

// checkpointAndCheckLocked persists state and finalizes the campaign if
// every shard reached a terminal state.
func (c *Coordinator) checkpointAndCheckLocked() {
	if err := c.saveCheckpointLocked(); err != nil {
		c.cc.Logf("checkpoint: %v", err)
	}
	c.checkFinishedLocked()
}

// foldLine decodes one trial line of shard sc with campaign.DecodeTrial.
// A line that names a trial of sc's range not yet seen marks the trial
// seen and folds it into its benchmark's live report; fresh reports
// that. Every other line is an error: not a usable trial line, or a
// trial outside sc's range. handleEvents and the resume rescan both
// fold through here, so the live view is the merged report's fold over
// the same lines.
func (c *Coordinator) foldLine(sc *shardCtl, line []byte) (fresh bool, err error) {
	bench, t, r, err := campaign.DecodeTrial(line)
	if err != nil {
		return false, err
	}
	if bench != sc.shard.Bench || t < sc.shard.Lo || t >= sc.shard.Hi {
		return false, fmt.Errorf("trial %s/%d is outside %s", bench, t, sc.shard)
	}
	if sc.seen[t] {
		return false, nil // a re-leased shard re-streaming a prefix; keep the first copy
	}
	sc.seen[t] = true
	c.live[bench].Fold(&r)
	return true, nil
}

// fleetLocked finishes every benchmark's live report and returns their
// merged fleet row: the final report's fleet counts over the trials
// persisted so far.
func (c *Coordinator) fleetLocked() *campaign.BenchReport {
	fleet := &campaign.BenchReport{Benchmark: "fleet"}
	for _, sp := range c.cfg.Specs {
		br := c.live[sp.Name]
		br.Finish()
		fleet.Merge(br)
	}
	fleet.Finish()
	return fleet
}

// maybeEarlyStopLocked applies the adaptive stopping rule: when the
// campaign carries a ci_target and a benchmark's live SDC and DUE
// Wilson 95% half-widths over injected trials have both reached it
// (stats.Converged95 over one stratum, the sampler's rule),
// the benchmark's still-pending shards are cancelled — their trials
// would only narrow an interval that is already narrow enough. Leased
// shards run to completion (their results are free by the time we
// know), and done shards stay done.
func (c *Coordinator) maybeEarlyStopLocked(bench string) {
	target := c.cfg.CITarget
	if target <= 0 || c.stopped[bench] {
		return
	}
	br := c.live[bench]
	br.Finish()
	if br.Injected == 0 {
		return
	}
	sdcHalf, dueHalf, ok := stats.Converged95(target,
		[]stats.StratumCount{{Weight: 1, N: br.Injected, K: br.SDC}},
		[]stats.StratumCount{{Weight: 1, N: br.Injected, K: br.DUE}})
	if !ok {
		return
	}
	c.stopped[bench] = true
	cancelled := 0
	for _, sc := range c.shards {
		if sc.shard.Bench == bench && sc.state == statePending {
			sc.state = stateCancelled
			cancelled++
		}
	}
	c.cc.Logf("%s converged (sdc ±%.4f, due ±%.4f <= ci_target %.4f after %d injected trials); cancelled %d pending shards",
		bench, sdcHalf, dueHalf, target, br.Injected, cancelled)
}

// checkFinishedLocked finalizes once no shard can make further
// progress: all done or cancelled (complete) or the remainder
// quarantined (degraded).
func (c *Coordinator) checkFinishedLocked() {
	if c.finished {
		return
	}
	for _, sc := range c.shards {
		if sc.state != stateDone && sc.state != stateQuarantined && sc.state != stateCancelled {
			return
		}
	}
	fr, err := c.mergeLocked()
	if err != nil {
		c.cc.Logf("merge: %v", err)
		return
	}
	c.finished = true
	c.final = fr
	close(c.done)
	mode := "complete"
	if !fr.Complete {
		mode = fmt.Sprintf("degraded (%d quarantined shards, %d trials missing)",
			len(fr.Quarantined), fr.Integrity.Missing)
	}
	f := fr.Report.Fleet
	c.cc.Logf("campaign finished %s: %d trials, coverage %.2f%% [%.2f%%, %.2f%%]",
		mode, f.Trials, f.Coverage*100, f.CoverageLo*100, f.CoverageHi*100)
}

// mergeLocked assembles the merged stream — the campaign's set-up
// lines, every shard stream in plan order (quarantined shards
// contribute whatever partial range they streamed) — and replays it.
func (c *Coordinator) mergeLocked() (*FinalReport, error) {
	var buf bytes.Buffer
	if err := campaign.WriteSetup(&buf, &c.cfg, c.set, len(c.workers), len(c.cfg.Specs)*c.cfg.Trials); err != nil {
		return nil, err
	}
	var quarantined, cancelled []campaign.Shard
	cancelledMissing := 0
	allDone := true
	for _, sc := range c.shards {
		switch sc.state {
		case stateQuarantined:
			quarantined = append(quarantined, sc.shard)
			allDone = false
		case stateCancelled:
			cancelled = append(cancelled, sc.shard)
			cancelledMissing += sc.shard.Trials() - len(sc.seen)
		}
		data, err := os.ReadFile(shardFilePath(c.cc.StateDir, sc.shard.ID))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		buf.Write(data)
	}
	var earlyStopped []string
	for _, sp := range c.cfg.Specs {
		if c.stopped[sp.Name] {
			earlyStopped = append(earlyStopped, sp.Name)
		}
	}
	rep, ig, err := campaign.ReplayIntegrity(&buf)
	if err != nil {
		return nil, err
	}
	return &FinalReport{
		Report: rep, Integrity: ig,
		// Complete tolerates exactly the trials a CI-target early stop
		// deliberately skipped; anything else missing is degradation.
		Complete:     allDone && ig.Clean() && ig.Missing == cancelledMissing,
		Quarantined:  quarantined,
		Cancelled:    cancelled,
		EarlyStopped: earlyStopped,
	}, nil
}

// Done is closed when the campaign reaches a terminal state.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// allWorkersSawDone reports whether every non-banned worker's lease
// poll has been answered Done — the signal that the HTTP surface can
// shut down without stranding workers in connection-refused retries.
func (c *Coordinator) allWorkersSawDone() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, reason := range c.workers {
		if reason == "" && !c.doneSeen[name] {
			return false
		}
	}
	return true
}

// Final returns the merged report once Done is closed (nil before).
func (c *Coordinator) Final() *FinalReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final
}

// PartialReport merges whatever is on disk right now — the degraded
// view an operator pulls when the fleet cannot finish.
func (c *Coordinator) PartialReport() (*FinalReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.final != nil {
		return c.final, nil
	}
	return c.mergeLocked()
}

// --- HTTP surface ----------------------------------------------------

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaign", c.handleCampaign)
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/events", c.handleEvents)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/release", c.handleRelease)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /v1/report", c.handleReport)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /dashboard", handleDashboard)
	return mux
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.cc.Info)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if reason, banned := c.workers[req.Worker]; banned && reason != "" {
		writeJSON(w, http.StatusForbidden, JoinResponse{Reason: "worker is banned: " + reason})
		return
	}
	// teaMPI-style replica vote: the worker's fault-free golden hashes
	// must agree with the coordinator's own replica for every benchmark;
	// a dissenting worker is corrupted (bad memory, bad build, wrong
	// arch) and must not compute trials.
	for bench, want := range c.sigs {
		got, ok := req.Goldens[bench]
		if !ok {
			c.banLocked(req.Worker, fmt.Sprintf("no golden signature for %s", bench))
			writeJSON(w, http.StatusForbidden, JoinResponse{Reason: c.workers[req.Worker]})
			return
		}
		if got != want {
			c.banLocked(req.Worker, fmt.Sprintf(
				"golden vote failed for %s: worker %s/%d vs majority %s/%d",
				bench, got.Hash, got.Window, want.Hash, want.Window))
			writeJSON(w, http.StatusForbidden, JoinResponse{Reason: c.workers[req.Worker]})
			return
		}
	}
	if _, ok := c.workers[req.Worker]; !ok {
		c.cc.Logf("worker %q joined (golden vote passed, %d benchmarks)", req.Worker, len(c.sigs))
	}
	c.workers[req.Worker] = ""
	writeJSON(w, http.StatusOK, JoinResponse{OK: true})
}

func (c *Coordinator) banLocked(worker, reason string) {
	c.workers[worker] = reason
	c.cc.Logf("worker %q rejected: %s", worker, reason)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if reason, ok := c.workers[req.Worker]; !ok || reason != "" {
		writeJSON(w, http.StatusForbidden, map[string]string{"error": "worker not joined or banned"})
		return
	}
	if c.finished {
		c.doneSeen[req.Worker] = true
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	now := time.Now()
	var pick *shardCtl
	wait := c.cc.LeaseTTL
	for _, sc := range c.shards {
		switch sc.state {
		case statePending:
			if !now.Before(sc.notBefore) {
				pick = sc
			} else if d := sc.notBefore.Sub(now); d < wait {
				wait = d
			}
		case stateLeased:
			if d := sc.deadline.Sub(now); d > 0 && d < wait {
				wait = d
			}
		}
		if pick != nil {
			break
		}
	}
	if pick == nil {
		if wait < 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		if wait > time.Second {
			wait = time.Second
		}
		writeJSON(w, http.StatusOK, LeaseResponse{RetryMS: wait.Milliseconds()})
		return
	}
	c.leaseSeq++
	id := fmt.Sprintf("e%d-l%d-s%d", c.epoch, c.leaseSeq, pick.shard.ID)
	pick.state = stateLeased
	pick.leaseID, pick.worker = id, req.Worker
	pick.leasedAt = now
	pick.deadline = now.Add(c.cc.LeaseTTL)
	c.leases[id] = pick
	c.cc.Logf("leased %s to %q as %s (attempt %d)", pick.shard, req.Worker, id, pick.fails+1)
	sh := pick.shard
	writeJSON(w, http.StatusOK, LeaseResponse{
		Shard: &sh, LeaseID: id,
		Attempt:     pick.fails + 1,
		DeadlineMS:  c.cc.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.cc.LeaseTTL / 3).Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, http.StatusOK, HeartbeatResponse{Cancel: true})
		return
	}
	sc.deadline = time.Now().Add(c.cc.LeaseTTL)
	sc.progress = req.Done
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req EventsRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, http.StatusOK, EventsResponse{OK: false})
		return
	}
	sc.deadline = time.Now().Add(c.cc.LeaseTTL) // a batch is a heartbeat
	var accept []byte
	for _, raw := range req.Lines {
		fresh, err := c.foldLine(sc, raw)
		if err != nil {
			c.cc.Logf("lease %s: dropped invalid event line: %v (%.80s)", req.LeaseID, err, raw)
			continue
		}
		if !fresh {
			continue
		}
		accept = append(accept, raw...)
		if len(raw) == 0 || raw[len(raw)-1] != '\n' {
			accept = append(accept, '\n')
		}
	}
	if len(accept) > 0 {
		if err := appendShardFile(shardFilePath(c.cc.StateDir, sc.shard.ID), accept); err != nil {
			c.cc.Logf("append %s: %v", sc.shard, err)
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		wasStopped := c.stopped[sc.shard.Bench]
		c.maybeEarlyStopLocked(sc.shard.Bench)
		if c.stopped[sc.shard.Bench] && !wasStopped {
			c.checkpointAndCheckLocked()
		}
	}
	writeJSON(w, http.StatusOK, EventsResponse{OK: true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, http.StatusOK, CompleteResponse{Reason: "unknown or expired lease"})
		return
	}
	delete(c.leases, req.LeaseID)
	if got, want := len(sc.seen), sc.shard.Trials(); got != want {
		// The worker claims done but the stream is short — count it as a
		// failed lease so the shard is retried (or quarantined).
		reason := fmt.Sprintf("%s: %d/%d trials persisted", sc.shard, got, want)
		c.failShardLocked(sc, time.Now())
		c.checkpointAndCheckLocked()
		writeJSON(w, http.StatusOK, CompleteResponse{Reason: reason})
		return
	}
	sc.state = stateDone
	sc.leaseID, sc.worker = "", ""
	c.cc.Logf("%s done (%d trials)", sc.shard, sc.shard.Trials())
	c.checkpointAndCheckLocked()
	writeJSON(w, http.StatusOK, CompleteResponse{OK: true})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sc, ok := c.leases[req.LeaseID]; ok {
		delete(c.leases, req.LeaseID)
		// Graceful handoff: no failure strike, immediately re-leasable.
		sc.state = statePending
		sc.leaseID, sc.worker, sc.progress = "", "", 0
		sc.notBefore = time.Time{}
		c.cc.Logf("lease %s released gracefully (%s, %d/%d trials streamed)",
			req.LeaseID, sc.shard, len(sc.seen), sc.shard.Trials())
		c.checkpointAndCheckLocked()
	}
	writeJSON(w, http.StatusOK, EventsResponse{OK: true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	benches := make([]string, len(c.cfg.Specs))
	for i, sp := range c.cfg.Specs {
		benches[i] = sp.Name
	}
	fleet := c.fleetLocked()
	st := StatusResponse{
		Benchmarks:  benches,
		TotalTrials: len(benches) * c.cfg.Trials,
		Tallies:     tallies(fleet),
		Coverage:    fleet.Coverage,
		CoverageLo:  fleet.CoverageLo,
		CoverageHi:  fleet.CoverageHi,
		Complete:    c.finished && c.final != nil && c.final.Complete,
		ElapsedSec:  time.Since(c.started).Seconds(),
	}
	for _, sc := range c.shards {
		st.DoneTrials += len(sc.seen)
		switch sc.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.DoneShards++
		case stateQuarantined:
			st.Quarantined++
		case stateCancelled:
			st.Cancelled++
		}
		ss := ShardStatus{
			Shard: sc.shard, State: sc.state, Retries: sc.fails,
			Worker: sc.worker, Done: len(sc.seen),
		}
		if sc.state == stateLeased {
			ss.LeaseAgeSec = time.Since(sc.leasedAt).Seconds()
		}
		st.Shards = append(st.Shards, ss)
	}
	st.Degraded = st.Quarantined > 0
	for _, sp := range c.cfg.Specs {
		if c.stopped[sp.Name] {
			st.EarlyStopped = append(st.EarlyStopped, sp.Name)
		}
	}
	for name, reason := range c.workers {
		if reason == "" {
			st.Workers = append(st.Workers, name)
		} else {
			st.BannedWorkers = append(st.BannedWorkers, name)
		}
	}
	sort.Strings(st.Workers)
	sort.Strings(st.BannedWorkers)
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("partial") != "" {
		fr, err := c.PartialReport()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, fr)
		return
	}
	c.mu.Lock()
	fr := c.final
	c.mu.Unlock()
	if fr == nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "campaign not finished; use ?partial=1 for a best-effort merge"})
		return
	}
	writeJSON(w, http.StatusOK, fr)
}

// --- small helpers ---------------------------------------------------

// Signature hashes a golden run for the replica vote: FNV-1a over the
// window and the golden's memory-image fingerprint (Golden.Fingerprint).
func Signature(g *core.Golden) GoldenSig {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(g.Window))
	binary.LittleEndian.PutUint64(b[8:], g.Fingerprint())
	h.Write(b[:])
	return GoldenSig{Window: g.Window, Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// writeJSONLogf receives encode failures from writeJSON; a variable so
// tests can capture it. A failed encode cannot be turned into an error
// response (the status line is already written), but it must not vanish
// silently — a worker seeing a truncated body will retry, and the log
// line is the only trace of why.
var writeJSONLogf = func(format string, args ...any) {
	log.Printf(format, args...)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		writeJSONLogf("dist: writeJSON %T: %v", v, err)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}
