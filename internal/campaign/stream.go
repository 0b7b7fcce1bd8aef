package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"flame/internal/core"
	"flame/internal/stats"
)

// Campaign event streaming: when Config.Events is set, Run emits one
// JSON object per line (JSONL) describing the campaign's progress —
// campaign_start, one golden per workload, trial_start/trial per trial,
// periodic progress records with throughput and ETA, and campaign_done.
// The stream is safe to tail while the campaign runs; Replay rebuilds
// the full Report from a finished stream, and the tests assert the
// replayed report is byte-identical to the one Run returned.

// startEvent opens a stream: the campaign's identity, from which a
// replayer rebuilds the report skeleton (workload order included), plus
// the two facts of this run that do not change the campaign.
type startEvent struct {
	Event string `json:"event"` // "campaign_start"
	Identity
	Parallel    int `json:"parallel"`
	TotalTrials int `json:"total_trials"`
}

// decodeStart parses a campaign_start line. A line that does not carry
// a resolvable identity, as streams written before the header held one
// do not, is an error naming what is missing.
func decodeStart(raw []byte) (*startEvent, error) {
	e := new(startEvent)
	err := json.Unmarshal(raw, e)
	if err == nil {
		_, err = e.Config(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: campaign_start carries no campaign identity (streams written before the identity header cannot be replayed or resumed): %v", err)
	}
	return e, nil
}

// setupRecords is a campaign's set-up as its event stream records it:
// the campaign_start header and, per benchmark, the golden window, the
// strata enumeration (stratified campaigns), the prune fallback reason
// and the stratified sampler's bench_done record. Run and RunStratified
// build it in memory, WriteSetup encodes it (bench_done records stream
// as each benchmark finishes), ReplayIntegrity parses a stream back into
// it, and assemble turns it and the trials into the Report.
type setupRecords struct {
	start    *startEvent
	windows  map[string]int64
	strata   map[string]*strataEvent
	pruneOff map[string]string
	done     map[string]*benchDoneEvent
}

func newSetupRecords() *setupRecords {
	return &setupRecords{
		windows: map[string]int64{}, strata: map[string]*strataEvent{},
		pruneOff: map[string]string{}, done: map[string]*benchDoneEvent{},
	}
}

// setupRecords returns the set-up records of the campaign prepared as
// set, run on parallel workers with total planned trials.
func (cfg *Config) setupRecords(set []core.Setup, parallel, total int) *setupRecords {
	rs := newSetupRecords()
	rs.start = &startEvent{Event: "campaign_start", Identity: cfg.Identity(), Parallel: parallel, TotalTrials: total}
	for i, name := range rs.start.Benchmarks {
		rs.windows[name] = set[i].Golden.Window
		if m := set[i].Strata; m != nil {
			info := make([]stratumInfo, len(m.Strata))
			for j := range m.Strata {
				info[j] = stratumInfo{Key: m.Strata[j].Key(), Sites: m.Strata[j].Sites}
			}
			rs.strata[name] = &strataEvent{
				Event: "strata", Benchmark: name,
				SpanSites: m.Span, NoInjectionSites: m.NoInjectionSites, Strata: info,
			}
		}
		if reason := set[i].Prune.Disabled(); reason != "" {
			rs.pruneOff[name] = reason
		}
	}
	return rs
}

// encode writes the set-up lines in the order the serial set-up wrote
// them: campaign_start, every golden, every strata enumeration, then
// every benchmark whose pruning is off.
func (rs *setupRecords) encode(w io.Writer) error {
	benches := rs.start.Benchmarks
	lines := []any{rs.start}
	for _, name := range benches {
		lines = append(lines, goldenEvent{Event: "golden", Benchmark: name, WindowCycles: rs.windows[name]})
	}
	for _, name := range benches {
		if se := rs.strata[name]; se != nil {
			lines = append(lines, se)
		}
	}
	for _, name := range benches {
		if reason := rs.pruneOff[name]; reason != "" {
			lines = append(lines, pruneDisabledEvent{Event: "prune_disabled", Benchmark: name, Reason: reason})
		}
	}
	enc := json.NewEncoder(w)
	for _, v := range lines {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// WriteSetup writes the set-up lines of a campaign prepared as set,
// announcing total planned trials on parallel workers. The streamer
// writes them at the head of a campaign's stream and the distributed
// coordinator at the head of its merged stream, so both replay to the
// same report skeleton.
func WriteSetup(w io.Writer, cfg *Config, set []core.Setup, parallel, total int) error {
	return cfg.setupRecords(set, parallel, total).encode(w)
}

// goldenEvent reports one workload's fault-free reference run.
type goldenEvent struct {
	Event        string `json:"event"` // "golden"
	Benchmark    string `json:"benchmark"`
	WindowCycles int64  `json:"window_cycles"`
}

// pruneDisabledEvent records a per-workload prune fallback: pruning
// was requested (Config.Prune) but one of the index's soundness gates
// disabled it, so the workload's trials run under full simulation.
// Emitted once per affected workload, right after the goldens.
type pruneDisabledEvent struct {
	Event     string `json:"event"` // "prune_disabled"
	Benchmark string `json:"benchmark"`
	Reason    string `json:"reason"`
}

// trialStartEvent marks a trial handed to a worker.
type trialStartEvent struct {
	Event     string `json:"event"` // "trial_start"
	Benchmark string `json:"benchmark"`
	Trial     int    `json:"trial"`
}

// trialEvent reports one classified trial. It carries every per-trial
// field the report aggregation consumes, so a stream replays exactly.
type trialEvent struct {
	Event           string `json:"event"` // "trial"
	Benchmark       string `json:"benchmark"`
	Trial           int    `json:"trial"`
	Outcome         string `json:"outcome"`
	Detected        bool   `json:"detected"`
	Strikes         int    `json:"strikes"`
	ExcludedStrikes int    `json:"excluded_strikes"`
	Cycles          int64  `json:"cycles"`
	// Pruned marks trials classified by the pruning oracle instead of
	// simulation (omitted when false, so prune-off streams are
	// byte-identical to the pre-pruning format).
	Pruned bool `json:"pruned,omitempty"`
	// Stratum is the injection-site stratum the trial was drawn from
	// (stratified campaigns only).
	Stratum     string `json:"stratum,omitempty"`
	Description string `json:"description,omitempty"`
	// Prop is the propagation/fingerprint record (traced campaigns
	// only; omitted otherwise so untraced streams keep the pre-tracing
	// format). Replay folds it back so traced reports rebuild
	// byte-identically.
	Prop *core.PropRecord `json:"prop,omitempty"`
}

// newTrialEvent builds the trial record of trial t of bench; the
// streamer and MarshalTrialEvent both write it, and DecodeTrial inverts
// it.
func newTrialEvent(bench string, t int, r *core.TrialResult) trialEvent {
	return trialEvent{
		Event: "trial", Benchmark: bench, Trial: t,
		Outcome: r.Outcome.String(), Detected: r.Detected,
		Strikes: r.Strikes, ExcludedStrikes: r.ExcludedStrikes,
		Cycles: r.Cycles, Pruned: r.Pruned, Stratum: r.Stratum,
		Description: r.Description, Prop: r.Prop,
	}
}

// trialRecord is one classified trial: its benchmark, its trial index
// and its result. drop marks a streamed trial line that cannot be
// folded.
type trialRecord struct {
	bench string
	t     int
	r     core.TrialResult
	drop  unusableTrial
}

// unusableTrial is DecodeTrial's error for a well-formed trial line
// that cannot be folded; replay counts it dropped, not malformed.
type unusableTrial string

func (e unusableTrial) Error() string { return string(e) }

// dropDetail describes a trial line that cannot be folded.
func dropDetail(bench string, t int, outcome string) unusableTrial {
	return unusableTrial(fmt.Sprintf("trial %s/%d outcome %q", bench, t, outcome))
}

// DecodeTrial parses one trial JSONL line, the inverse of
// MarshalTrialEvent. It rejects a line that is not JSON, not a trial
// event, names an unknown outcome or carries a negative trial index.
// Every reader of trial lines (ReplayIntegrity, DoneSet and the
// distributed coordinator) decodes through it, so they agree on which
// lines count.
func DecodeTrial(line []byte) (bench string, trial int, r core.TrialResult, err error) {
	var e trialEvent
	if err := json.Unmarshal(line, &e); err != nil {
		return "", 0, r, err
	}
	if e.Event != "trial" {
		return "", 0, r, fmt.Errorf("campaign: %q event is not a trial", e.Event)
	}
	outcome, ok := outcomeByName[e.Outcome]
	if !ok || e.Trial < 0 {
		return e.Benchmark, e.Trial, r, dropDetail(e.Benchmark, e.Trial, e.Outcome)
	}
	return e.Benchmark, e.Trial, core.TrialResult{
		Outcome: outcome, Detected: e.Detected,
		Strikes: e.Strikes, ExcludedStrikes: e.ExcludedStrikes,
		Cycles: e.Cycles, Pruned: e.Pruned, Stratum: e.Stratum,
		Description: e.Description, Prop: e.Prop,
	}, nil
}

// strataEvent reports one workload's site-space enumeration (stratified
// campaigns; replay rebuilds the sampling breakdown from it).
type strataEvent struct {
	Event            string        `json:"event"` // "strata"
	Benchmark        string        `json:"benchmark"`
	SpanSites        int64         `json:"span_sites"`
	NoInjectionSites int64         `json:"no_injection_sites"`
	Strata           []stratumInfo `json:"strata"`
}

// stratumInfo is one stratum's identity and exact site count.
type stratumInfo struct {
	Key   string `json:"key"`
	Sites int64  `json:"sites"`
}

// benchDoneEvent closes one workload's stratified sampling: how much of
// the budget adaptive stopping spent, and why it stopped.
type benchDoneEvent struct {
	Event      string `json:"event"` // "bench_done"
	Benchmark  string `json:"benchmark"`
	TrialsUsed int    `json:"trials_used"`
	Rounds     int    `json:"rounds"`
	StopReason string `json:"stop_reason"`
}

// progressEvent summarizes throughput; emitted every ~2% of trials.
type progressEvent struct {
	Event        string         `json:"event"` // "progress"
	Done         int            `json:"done"`
	Total        int            `json:"total"`
	ElapsedSec   float64        `json:"elapsed_sec"`
	TrialsPerSec float64        `json:"trials_per_sec"`
	EtaSec       float64        `json:"eta_sec"`
	Tallies      map[string]int `json:"tallies"`
}

// doneEvent closes a stream with the fleet summary. The restore-page
// and prune counters are observability side channels: RestoredPages
// depends on worker scheduling (each engine's first restore copies the
// full image), so it belongs in the stream and /metrics, never in the
// Report, which must stay byte-identical at any -parallel. All four
// are omitted when zero, keeping pre-existing stream shapes unchanged
// where the feature is off.
type doneEvent struct {
	Event        string  `json:"event"` // "campaign_done"
	Trials       int     `json:"trials"`
	Injected     int     `json:"injected"`
	Masked       int     `json:"masked"`
	Recovered    int     `json:"recovered"`
	SDC          int     `json:"sdc"`
	DUE          int     `json:"due"`
	Hang         int     `json:"hang"`
	Coverage     float64 `json:"coverage"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	Pruned       int     `json:"pruned,omitempty"`
	RestorePages int64   `json:"restored_pages,omitempty"`
	DirtyPages   int64   `json:"dirty_pages,omitempty"`
	DiffPages    int64   `json:"diff_pages,omitempty"`
}

// streamer serializes events from concurrent workers onto one writer.
type streamer struct {
	mu       sync.Mutex
	w        io.Writer
	enc      *json.Encoder
	start    time.Time
	done     int
	total    int
	every    int
	tally    [core.NumOutcomes]int
	firstErr error
}

func newStreamer(w io.Writer, total int) *streamer {
	every := total / 50
	if every < 1 {
		every = 1
	}
	return &streamer{w: w, enc: json.NewEncoder(w), start: time.Now(), total: total, every: every}
}

func (s *streamer) emit(v any) {
	if err := s.enc.Encode(v); err != nil && s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *streamer) emitLocked(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(v)
}

// setup writes the set-up lines before any trial runs.
func (s *streamer) setup(rs *setupRecords) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := rs.encode(s.w); err != nil && s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *streamer) trialStart(bench string, t int) {
	s.emitLocked(trialStartEvent{Event: "trial_start", Benchmark: bench, Trial: t})
}

func (s *streamer) trial(bench string, t int, r *core.TrialResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	s.tally[r.Outcome]++
	s.emit(newTrialEvent(bench, t, r))
	if s.done%s.every != 0 && s.done != s.total {
		return
	}
	elapsed := time.Since(s.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(s.done) / elapsed
	}
	eta := 0.0
	if rate > 0 {
		eta = float64(s.total-s.done) / rate
	}
	tallies := make(map[string]int, core.NumOutcomes)
	for o := core.Outcome(0); o < core.NumOutcomes; o++ {
		if s.tally[o] > 0 {
			tallies[o.String()] = s.tally[o]
		}
	}
	s.emit(progressEvent{
		Event: "progress", Done: s.done, Total: s.total,
		ElapsedSec: elapsed, TrialsPerSec: rate, EtaSec: eta, Tallies: tallies,
	})
}

func (s *streamer) campaignDone(rep *Report, rs core.RestoreStats) {
	elapsed := time.Since(s.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(s.done) / elapsed
	}
	f := &rep.Fleet
	s.emitLocked(doneEvent{
		Event: "campaign_done", Trials: f.Trials, Injected: f.Injected,
		Masked: f.Masked, Recovered: f.Recovered, SDC: f.SDC, DUE: f.DUE,
		Hang: f.Hang, Coverage: f.Coverage, ElapsedSec: elapsed, TrialsPerSec: rate,
		Pruned:       f.PrunedMasked + f.PrunedNoInjection,
		RestorePages: rs.RestoredPages, DirtyPages: rs.DirtyPages, DiffPages: rs.DiffPages,
	})
}

func (s *streamer) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// outcomeByName inverts core.Outcome.String for replay.
var outcomeByName = func() map[string]core.Outcome {
	m := make(map[string]core.Outcome, core.NumOutcomes)
	for o := core.Outcome(0); o < core.NumOutcomes; o++ {
		m[o.String()] = o
	}
	return m
}()

// Integrity summarizes the health of a replayed event stream: what was
// skipped, deduplicated or found missing. A stream written by a single
// healthy campaign run replays Clean with zero Missing; a stream
// assembled from crash-recovered shard files — torn last lines,
// re-leased shards repeating trials, quarantined shards absent — does
// not, and Integrity is the explicit accounting of exactly how far from
// complete the replayed report is.
type Integrity struct {
	// Lines is the total line count scanned (blank lines included).
	Lines int `json:"lines"`
	// Malformed counts lines that were not valid JSON (torn writes,
	// interleaved garbage); they are skipped, not fatal.
	Malformed      int    `json:"malformed"`
	FirstMalformed string `json:"first_malformed,omitempty"`
	// Dropped counts structurally valid trial events that could not be
	// used: unknown outcome name, unknown benchmark, or a trial index
	// outside [0, trials-per-benchmark).
	Dropped      int    `json:"dropped"`
	FirstDropped string `json:"first_dropped,omitempty"`
	// Duplicates counts repeated (benchmark, trial) events beyond the
	// first — the normal residue of a re-leased shard whose previous
	// owner had already streamed part of its range. Trials are
	// deterministic, so duplicates are byte-identical and folding the
	// first is exact.
	Duplicates int `json:"duplicates"`
	// Missing counts (benchmark, trial) pairs announced by
	// campaign_start but absent from the stream, per benchmark and in
	// total — the explicit missing-shard accounting of a degraded merge.
	Missing        int            `json:"missing_trials"`
	MissingByBench map[string]int `json:"missing_by_benchmark,omitempty"`
}

// Clean reports whether every scanned line was usable (missing trials
// are reported separately: a partial-but-healthy stream is Clean).
func (ig *Integrity) Clean() bool { return ig.Malformed == 0 && ig.Dropped == 0 }

// String renders a one-line summary.
func (ig *Integrity) String() string {
	return fmt.Sprintf("lines=%d malformed=%d dropped=%d duplicates=%d missing=%d",
		ig.Lines, ig.Malformed, ig.Dropped, ig.Duplicates, ig.Missing)
}

// Replay rebuilds a campaign Report from a finished JSONL event stream.
// Trial events are folded in (benchmark, trial) order — the same grid
// order Run aggregates in — so the replayed report matches the original
// byte-for-byte, regardless of how workers interleaved the stream. It
// is the strict form: any malformed or unusable line fails the replay.
// Crash-recovery paths use ReplayIntegrity, which skips and counts.
func Replay(r io.Reader) (*Report, error) {
	rep, ig, err := ReplayIntegrity(r)
	if err != nil {
		return nil, err
	}
	if !ig.Clean() {
		detail := ig.FirstMalformed
		if detail == "" {
			detail = ig.FirstDropped
		}
		return nil, fmt.Errorf("campaign: replay: unhealthy stream (%s): %s", ig, detail)
	}
	return rep, nil
}

// ReplayIntegrity rebuilds a campaign Report from a JSONL event stream,
// tolerating the damage crash recovery leaves behind: malformed lines
// (torn final writes, interleaved garbage) are skipped and counted,
// duplicate trials (re-leased shards) are deduplicated keeping the
// first occurrence, and trials missing from the stream are tallied per
// benchmark. The only fatal conditions are a reader error and a stream
// with no campaign_start, or one without a campaign identity (nothing
// to rebuild a skeleton from).
func ReplayIntegrity(r io.Reader) (*Report, *Integrity, error) {
	ig := &Integrity{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	rs := newSetupRecords()
	var trials []trialRecord // every trial line, in stream order
	malformed := func(line int, raw []byte, err error) {
		ig.Malformed++
		if ig.FirstMalformed == "" {
			ig.FirstMalformed = fmt.Sprintf("line %d: %v (%.60q)", line, err, raw)
		}
	}
	// decode parses raw into v, counting it malformed on failure.
	decode := func(raw []byte, v any) bool {
		if err := json.Unmarshal(raw, v); err != nil {
			malformed(ig.Lines, raw, err)
			return false
		}
		return true
	}
	for sc.Scan() {
		ig.Lines++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Event string `json:"event"`
		}
		if !decode(raw, &probe) {
			continue
		}
		switch probe.Event {
		case "campaign_start":
			// Resumed streams append a fresh header; the last one wins
			// (DoneSet refuses to resume a different campaign).
			e, err := decodeStart(raw)
			if err != nil {
				return nil, nil, fmt.Errorf("%w (line %d)", err, ig.Lines)
			}
			rs.start = e
		case "golden":
			if e := new(goldenEvent); decode(raw, e) {
				rs.windows[e.Benchmark] = e.WindowCycles
			}
		case "prune_disabled":
			if e := new(pruneDisabledEvent); decode(raw, e) {
				rs.pruneOff[e.Benchmark] = e.Reason
			}
		case "strata":
			if e := new(strataEvent); decode(raw, e) {
				rs.strata[e.Benchmark] = e
			}
		case "bench_done":
			if e := new(benchDoneEvent); decode(raw, e) {
				rs.done[e.Benchmark] = e
			}
		case "trial":
			bench, t, r, err := DecodeTrial(raw)
			var drop unusableTrial
			if err != nil && !errors.As(err, &drop) {
				malformed(ig.Lines, raw, err)
				continue
			}
			trials = append(trials, trialRecord{bench: bench, t: t, r: r, drop: drop})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("campaign: replay: %w", err)
	}
	if rs.start == nil {
		return nil, nil, fmt.Errorf("campaign: replay: no campaign_start event")
	}
	return assemble(rs, trials, ig), ig, nil
}

// assemble builds a campaign Report from its set-up records and its
// trials; it is the only code that makes one. Run and RunStratified
// call it with their in-memory records and results, ReplayIntegrity
// with what it parsed from a stream. Trials are folded in (benchmark,
// trial) order, keeping the first of repeated pairs, so the report does
// not depend on the order trials finished in. ig receives the dropped,
// duplicate and missing trial accounting; trials is reordered in place.
func assemble(rs *setupRecords, trials []trialRecord, ig *Integrity) *Report {
	start := rs.start
	order := make(map[string]int, len(start.Benchmarks))
	for i, b := range start.Benchmarks {
		order[b] = i
	}
	// Drop unusable trials before sorting (unknown benchmarks have no
	// defined position in the grid).
	usable := trials[:0]
	for _, e := range trials {
		if _, known := order[e.bench]; e.drop == "" && (!known || e.t >= start.Trials) {
			e.drop = dropDetail(e.bench, e.t, e.r.Outcome.String())
		}
		if e.drop != "" {
			ig.Dropped++
			if ig.FirstDropped == "" {
				ig.FirstDropped = string(e.drop)
			}
			continue
		}
		usable = append(usable, e)
	}
	trials = usable
	sort.SliceStable(trials, func(i, j int) bool {
		if bi, bj := order[trials[i].bench], order[trials[j].bench]; bi != bj {
			return bi < bj
		}
		return trials[i].t < trials[j].t
	})

	cfg, _ := start.Config(nil) // a header's identity resolves (decodeStart)
	rep := &Report{
		Arch: cfg.Arch.Name, Scheme: cfg.Opt.Scheme.String(), Model: start.Model,
		WCDL: cfg.Opt.EffectiveWCDL(), Seed: start.Seed, Trials: start.Trials,
		StrikesPerTrial: start.StrikesPerTrial,
		Stratified:      start.Stratify, CITarget: start.CITarget,
	}
	k := 0
	for _, bench := range start.Benchmarks {
		br := BenchReport{Benchmark: bench, WindowCycles: rs.windows[bench], PruneDisabled: rs.pruneOff[bench]}
		// Stratified campaigns rebuild the per-stratum breakdown from the
		// bench's strata record plus each trial's stratum key.
		se := rs.strata[bench]
		if !start.Stratify {
			se = nil
		}
		var counts []StratumReport
		keyIdx := map[string]int{}
		if se != nil {
			counts = make([]StratumReport, len(se.Strata))
			for i, si := range se.Strata {
				counts[i] = StratumReport{Key: si.Key, Sites: si.Sites}
				keyIdx[si.Key] = i
			}
		}
		folded := 0
		for ; k < len(trials) && trials[k].bench == bench; k++ {
			e := &trials[k]
			if folded > 0 && trials[k-1].t == e.t {
				ig.Duplicates++
				continue
			}
			br.Fold(&e.r)
			if i, ok := keyIdx[e.r.Stratum]; ok {
				counts[i].foldOutcome(e.r.Outcome)
			}
			folded++
		}
		// A stratified benchmark legitimately uses fewer trials than its
		// budget; only its bench_done record says how many actually ran.
		used, rounds, reason := folded, 0, "unknown"
		if d := rs.done[bench]; d != nil {
			used, rounds, reason = d.TrialsUsed, d.Rounds, d.StopReason
		}
		expected := start.Trials
		if start.Stratify {
			expected = used
		}
		if miss := expected - folded; miss > 0 {
			ig.Missing += miss
			if ig.MissingByBench == nil {
				ig.MissingByBench = map[string]int{}
			}
			ig.MissingByBench[bench] = miss
		}
		if se != nil {
			sdc, due := rateCounts(counts)
			br.Sampling = &SamplingReport{
				SpanSites: se.SpanSites, NoInjectionSites: se.NoInjectionSites,
				Budget: start.Trials, TrialsUsed: used, Rounds: rounds, StopReason: reason,
				SDCRate: rateCI(stats.StratifiedWilson95(sdc)),
				DUERate: rateCI(stats.StratifiedWilson95(due)),
				Strata:  counts,
			}
		}
		br.Finish()
		rep.Benchmarks = append(rep.Benchmarks, br)
		rep.Fleet.Merge(&br)
	}
	rep.Fleet.Benchmark = "fleet"
	rep.Fleet.Finish()
	return rep
}

// DoneSet scans a prior event stream of this campaign leniently and
// returns the set of (benchmark, trial) pairs that already have a
// classified trial event — the resume oracle: a restarted campaign
// skips exactly these. Damaged lines are ignored (a torn trial re-runs,
// which is safe: trials are deterministic and replay deduplicates). It
// refuses a stream whose last campaign_start names another campaign
// identity, or none: its trials belong to another campaign, and folding
// them into this one's report would misreport it.
func (cfg *Config) DoneSet(r io.Reader) (map[string]map[int]bool, error) {
	done := map[string]map[int]bool{}
	var last *startEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		bench, t, _, err := DecodeTrial(line)
		if err == nil {
			if done[bench] == nil {
				done[bench] = map[int]bool{}
			}
			done[bench][t] = true
			continue
		}
		var probe struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Event == "campaign_start" {
			if last, err = decodeStart(line); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: done-set scan: %w", err)
	}
	if last != nil {
		id := cfg.Identity()
		if field, theirs, ours := last.Diff(&id); field != "" {
			return nil, fmt.Errorf("campaign: cannot resume a different campaign: %s is %v in the stream, %v in this run", field, theirs, ours)
		}
	}
	return done, nil
}
