package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"flame/internal/core"
)

// Campaign event streaming: when Config.Events is set, Run emits one
// JSON object per line (JSONL) describing the campaign's progress —
// campaign_start, one golden per workload, trial_start/trial per trial,
// periodic progress records with throughput and ETA, and campaign_done.
// The stream is safe to tail while the campaign runs; Replay rebuilds
// the full Report from a finished stream, and the tests assert the
// replayed report is byte-identical to the one Run returned.

// startEvent opens a stream and carries everything a replayer needs to
// reconstruct the report skeleton (workload order included).
type startEvent struct {
	Event           string   `json:"event"` // "campaign_start"
	Arch            string   `json:"arch"`
	Scheme          string   `json:"scheme"`
	Model           string   `json:"model"`
	WCDL            int      `json:"wcdl"`
	Seed            uint64   `json:"seed"`
	TrialsPerBench  int      `json:"trials_per_benchmark"`
	StrikesPerTrial int      `json:"strikes_per_trial"`
	Parallel        int      `json:"parallel"`
	Benchmarks      []string `json:"benchmarks"`
	TotalTrials     int      `json:"total_trials"`
	// Stratified campaigns carry their sampler parameters; all omitted
	// on uniform campaigns, so those streams are byte-identical to the
	// pre-stratification format.
	Stratified bool    `json:"stratified,omitempty"`
	CITarget   float64 `json:"ci_target,omitempty"`
	Pilot      int     `json:"pilot,omitempty"`
	// Trace marks a propagation-traced campaign (omitted otherwise, so
	// untraced streams keep the pre-tracing format).
	Trace bool `json:"trace,omitempty"`
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
	return &streamer{enc: json.NewEncoder(w), start: time.Now(), total: total, every: every}
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

func (s *streamer) campaignStart(cfg *Config, parallel, wcdl int) {
	benches := make([]string, len(cfg.Specs))
	for i, sp := range cfg.Specs {
		benches[i] = sp.Name
	}
	s.emitLocked(startEvent{
		Event: "campaign_start", Arch: cfg.Arch.Name, Scheme: cfg.Opt.Scheme.String(),
		Model: cfg.Model.String(), WCDL: wcdl, Seed: cfg.Seed,
		TrialsPerBench: cfg.Trials, StrikesPerTrial: maxInt(1, cfg.StrikesPerTrial),
		Parallel: parallel, Benchmarks: benches, TotalTrials: s.total,
		Stratified: cfg.Stratify, CITarget: cfg.CITarget, Pilot: cfg.Pilot,
		Trace: cfg.Trace,
	})
}

func (s *streamer) golden(bench string, window int64) {
	s.emitLocked(goldenEvent{Event: "golden", Benchmark: bench, WindowCycles: window})
}

func (s *streamer) pruneDisabled(bench, reason string) {
	s.emitLocked(pruneDisabledEvent{Event: "prune_disabled", Benchmark: bench, Reason: reason})
}

func (s *streamer) strata(bench string, span, noInj int64, strata []stratumInfo) {
	s.emitLocked(strataEvent{
		Event: "strata", Benchmark: bench,
		SpanSites: span, NoInjectionSites: noInj, Strata: strata,
	})
}

func (s *streamer) benchDone(bench string, used, rounds int, reason string) {
	s.emitLocked(benchDoneEvent{
		Event: "bench_done", Benchmark: bench,
		TrialsUsed: used, Rounds: rounds, StopReason: reason,
	})
}

func (s *streamer) trialStart(bench string, t int) {
	s.emitLocked(trialStartEvent{Event: "trial_start", Benchmark: bench, Trial: t})
}

func (s *streamer) trial(bench string, t int, r *core.TrialResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	s.tally[r.Outcome]++
	s.emit(trialEvent{
		Event: "trial", Benchmark: bench, Trial: t,
		Outcome: r.Outcome.String(), Detected: r.Detected,
		Strikes: r.Strikes, ExcludedStrikes: r.ExcludedStrikes,
		Cycles: r.Cycles, Pruned: r.Pruned, Stratum: r.Stratum,
		Description: r.Description, Prop: r.Prop,
	})
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
// with no campaign_start (nothing to rebuild a skeleton from).
func ReplayIntegrity(r io.Reader) (*Report, *Integrity, error) {
	ig := &Integrity{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var start *startEvent
	windows := map[string]int64{}
	pruneOff := map[string]string{}
	strataBy := map[string]*strataEvent{}
	doneBy := map[string]*benchDoneEvent{}
	var trials []trialEvent
	malformed := func(line int, raw []byte, err error) {
		ig.Malformed++
		if ig.FirstMalformed == "" {
			ig.FirstMalformed = fmt.Sprintf("line %d: %v (%.60q)", line, err, raw)
		}
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
		if err := json.Unmarshal(raw, &probe); err != nil {
			malformed(ig.Lines, raw, err)
			continue
		}
		switch probe.Event {
		case "campaign_start":
			var e startEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			// Resumed streams append a fresh header; the last one wins
			// (same campaign, so the skeletons agree).
			start = &e
		case "golden":
			var e goldenEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			windows[e.Benchmark] = e.WindowCycles
		case "prune_disabled":
			var e pruneDisabledEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			pruneOff[e.Benchmark] = e.Reason
		case "strata":
			var e strataEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			strataBy[e.Benchmark] = &e
		case "bench_done":
			var e benchDoneEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			doneBy[e.Benchmark] = &e
		case "trial":
			var e trialEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				malformed(ig.Lines, raw, err)
				continue
			}
			trials = append(trials, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("campaign: replay: %w", err)
	}
	if start == nil {
		return nil, nil, fmt.Errorf("campaign: replay: no campaign_start event")
	}

	order := make(map[string]int, len(start.Benchmarks))
	for i, b := range start.Benchmarks {
		order[b] = i
	}
	// Drop unusable trial events before sorting (unknown benchmarks have
	// no defined position in the grid).
	usable := trials[:0]
	for i := range trials {
		e := &trials[i]
		_, knownBench := order[e.Benchmark]
		_, knownOutcome := outcomeByName[e.Outcome]
		switch {
		case !knownBench, !knownOutcome, e.Trial < 0, e.Trial >= start.TrialsPerBench:
			ig.Dropped++
			if ig.FirstDropped == "" {
				ig.FirstDropped = fmt.Sprintf("trial %s/%d outcome %q", e.Benchmark, e.Trial, e.Outcome)
			}
		default:
			usable = append(usable, *e)
		}
	}
	trials = usable
	sort.SliceStable(trials, func(i, j int) bool {
		if bi, bj := order[trials[i].Benchmark], order[trials[j].Benchmark]; bi != bj {
			return bi < bj
		}
		return trials[i].Trial < trials[j].Trial
	})

	rep := &Report{
		Arch: start.Arch, Scheme: start.Scheme, Model: start.Model,
		WCDL: start.WCDL, Seed: start.Seed, Trials: start.TrialsPerBench,
		StrikesPerTrial: start.StrikesPerTrial,
		Stratified:      start.Stratified, CITarget: start.CITarget,
	}
	k := 0
	for _, bench := range start.Benchmarks {
		br := BenchReport{Benchmark: bench, WindowCycles: windows[bench], PruneDisabled: pruneOff[bench]}
		// Stratified streams rebuild the per-stratum breakdown from the
		// bench's strata event plus each trial's stratum key.
		var counts []StratumReport
		keyIdx := map[string]int{}
		if se := strataBy[bench]; start.Stratified && se != nil {
			counts = make([]StratumReport, len(se.Strata))
			for i, si := range se.Strata {
				counts[i] = StratumReport{Key: si.Key, Sites: si.Sites}
				keyIdx[si.Key] = i
			}
		}
		folded := 0
		for ; k < len(trials) && trials[k].Benchmark == bench; k++ {
			e := &trials[k]
			if folded > 0 && trials[k-1].Trial == e.Trial {
				ig.Duplicates++
				continue
			}
			outcome := outcomeByName[e.Outcome]
			br.fold(&core.TrialResult{
				Outcome:         outcome,
				ExcludedStrikes: e.ExcludedStrikes,
				Pruned:          e.Pruned,
				Stratum:         e.Stratum,
				Description:     e.Description,
				Prop:            e.Prop,
			})
			if i, ok := keyIdx[e.Stratum]; ok {
				counts[i].foldOutcome(outcome)
			}
			folded++
		}
		expected := start.TrialsPerBench
		if start.Stratified {
			// A stratified benchmark legitimately uses fewer trials than its
			// budget; only its bench_done record says how many actually ran.
			expected = folded
			if d := doneBy[bench]; d != nil {
				expected = d.TrialsUsed
			}
		}
		if miss := expected - folded; miss > 0 {
			ig.Missing += miss
			if ig.MissingByBench == nil {
				ig.MissingByBench = map[string]int{}
			}
			ig.MissingByBench[bench] = miss
		}
		if se := strataBy[bench]; start.Stratified && se != nil {
			used, rounds, reason := folded, 0, "unknown"
			if d := doneBy[bench]; d != nil {
				used, rounds, reason = d.TrialsUsed, d.Rounds, d.StopReason
			}
			br.Sampling = buildSampling(se.SpanSites, se.NoInjectionSites,
				start.TrialsPerBench, used, rounds, reason, counts)
		}
		br.finish()
		rep.Benchmarks = append(rep.Benchmarks, br)
		rep.Fleet.merge(&br)
	}
	rep.Fleet.Benchmark = "fleet"
	rep.Fleet.finish()
	return rep, ig, nil
}

// DoneSet scans an event stream leniently and returns the set of
// (benchmark, trial) pairs that already have a classified trial event —
// the resume oracle: a restarted campaign skips exactly these. Damaged
// lines are ignored (a torn trial re-runs, which is safe: trials are
// deterministic and replay deduplicates).
func DoneSet(r io.Reader) (map[string]map[int]bool, error) {
	done := map[string]map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var e trialEvent
		if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &e); err != nil || e.Event != "trial" {
			continue
		}
		if _, ok := outcomeByName[e.Outcome]; !ok || e.Trial < 0 {
			continue
		}
		if done[e.Benchmark] == nil {
			done[e.Benchmark] = map[int]bool{}
		}
		done[e.Benchmark][e.Trial] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: done-set scan: %w", err)
	}
	return done, nil
}
