package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// PerfReport is the repo's performance trajectory record, written to
// BENCH_sim.json by `flamebench -exp perf` and uploaded by CI so every
// PR's throughput can be compared against its predecessors. All rates
// are wall-clock and therefore machine-dependent; the Host fields exist
// so cross-machine numbers are never compared blindly.
type PerfReport struct {
	// Timestamp is when the measurement ran (UTC, RFC 3339). Together
	// with Host.Commit it keys the run in the BENCH_sim.json history.
	Timestamp string `json:"timestamp,omitempty"`
	// Host identifies the measuring machine class.
	Host struct {
		OS     string `json:"os"`
		Arch   string `json:"arch"`
		CPUs   int    `json:"cpus"`
		GoVer  string `json:"go"`
		Commit string `json:"commit,omitempty"`
	} `json:"host"`
	// The throughput fields below are omitted, not written as zeros, on
	// entries that did not measure them (a sampling-only study).

	// SimCyclesPerSec is Device.Run throughput on a memory-bound
	// benchmark.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	// TrialsPerSec is end-to-end campaign throughput (mini-campaign,
	// all workers) and AllocsPerTrial / BytesPerTrial the per-trial
	// allocation cost measured single-threaded on one pooled engine.
	CampaignTrials int     `json:"campaign_trials,omitempty"`
	TrialsPerSec   float64 `json:"trials_per_sec,omitempty"`
	AllocsPerTrial float64 `json:"allocs_per_trial,omitempty"`
	BytesPerTrial  float64 `json:"bytes_per_trial,omitempty"`
	Benchmark      string  `json:"benchmark,omitempty"`

	// Page-granular restore accounting for the campaign above (COW on,
	// the default): mean pages copied back from the golden image per
	// trial and mean pages scanned during classification. The benchmark's
	// footprint in pages gives the denominator a full copy/scan would pay.
	FootprintPages        int     `json:"footprint_pages,omitempty"`
	RestoredPagesPerTrial float64 `json:"restored_pages_per_trial,omitempty"`
	DiffPagesPerTrial     float64 `json:"diff_pages_per_trial,omitempty"`

	// RestoreBound is the restore-bound microbenchmark, nil when not
	// measured.
	RestoreBound *RestoreBoundPerf `json:"restore_bound,omitempty"`

	// Sampling holds the stratified-sampling efficiency study from
	// `flamebench -exp sampling` (see SamplingStudy). Entries carrying
	// only Sampling have TrialsPerSec 0 and are skipped by the perf
	// guard's baseline walk.
	Sampling []SamplingBenchPerf `json:"sampling,omitempty"`
}

// RestoreBoundPerf is the restore-bound microbenchmark: a tiny kernel
// over a large footprint (worst case for full-image restore, best case
// for dirty-page restore), measured with page tracking on and off over
// the same trial set. CowSpeedup is the headline restore-path win;
// reports are byte-identical either way, so only the rate may differ.
type RestoreBoundPerf struct {
	Benchmark             string  `json:"benchmark"`
	FootprintPages        int     `json:"footprint_pages"`
	Trials                int     `json:"trials"`
	TrialsPerSec          float64 `json:"trials_per_sec"`
	TrialsPerSecNoCOW     float64 `json:"trials_per_sec_no_cow"`
	CowSpeedup            float64 `json:"cow_speedup"`
	RestoredPagesPerTrial float64 `json:"restored_pages_per_trial"`
	// PrunedFraction is the share of this workload's trials the
	// dataflow-slice pruner classifies without simulation (Baseline
	// scheme; detecting schemes disable pruning).
	PrunedFraction float64 `json:"pruned_fraction"`
}

// HostKey is the machine-class key for comparing history entries: rates
// from different OS/arch/CPU-count/Go combinations are never compared.
func (r *PerfReport) HostKey() string {
	return fmt.Sprintf("%s/%s/cpus:%d/%s", r.Host.OS, r.Host.Arch, r.Host.CPUs, r.Host.GoVer)
}

// PerfBench measures simulator and campaign throughput and writes the
// report to outPath (BENCH_sim.json). The workload choices mirror the
// micro-benchmarks in internal/gpu and internal/core but run through
// the public entry points, so the numbers track what users of flamesim
// and flameinject actually experience.
func PerfBench(cfg Config, outPath string, trials int) (*PerfReport, error) {
	cfg.fill()
	if trials <= 0 {
		trials = 50
	}
	rep := &PerfReport{Benchmark: "Triad"}
	rep.stamp()

	b, err := bench.ByName(rep.Benchmark)
	if err != nil {
		return nil, err
	}
	spec := b.Spec()

	// Device.Run throughput. Repeat runs until a minimum wall-clock
	// budget is spent so short kernels still give a stable rate on noisy
	// machines.
	var cycles int64
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		res, err := core.Run(cfg.Arch, spec, core.Options{Scheme: core.Baseline})
		if err != nil {
			return nil, err
		}
		cycles += res.Stats.Cycles
	}
	rep.SimCyclesPerSec = float64(cycles) / time.Since(start).Seconds()

	// Per-trial allocation cost: single goroutine, one pooled engine,
	// Mallocs/TotalAlloc deltas across `trials` trials.
	g, err := core.GoldenRun(cfg.Arch, spec, core.FlameOptions())
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(cfg.Arch)
	ts := core.TrialSpec{Seed: 1, MaxCycles: g.HangBudget(0)}
	ts.Arms = []int64{g.Window / 3}
	eng.RunTrial(spec, g, ts) // warm the device cache before measuring
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < trials; i++ {
		ts.Arms[0] = (int64(i) * g.Window) / int64(trials)
		ts.Seed = int64(i) + 7
		eng.RunTrial(spec, g, ts)
	}
	runtime.ReadMemStats(&after)
	rep.AllocsPerTrial = float64(after.Mallocs-before.Mallocs) / float64(trials)
	rep.BytesPerTrial = float64(after.TotalAlloc-before.TotalAlloc) / float64(trials)

	// End-to-end campaign throughput with the default worker count,
	// collecting the engines' page accounting as a side channel.
	var rs core.RestoreStats
	ccfg := campaign.Config{
		Arch:         cfg.Arch,
		Opt:          core.FlameOptions(),
		Specs:        []*core.KernelSpec{spec},
		Trials:       trials,
		Seed:         1,
		RestoreStats: &rs,
	}
	start = time.Now()
	if _, err := campaign.Run(ccfg); err != nil {
		return nil, err
	}
	rep.CampaignTrials = trials
	rep.TrialsPerSec = float64(trials) / time.Since(start).Seconds()
	rep.FootprintPages = (spec.MemBytes + gpu.PageBytes - 1) / gpu.PageBytes
	if rs.Trials > 0 {
		rep.RestoredPagesPerTrial = float64(rs.RestoredPages) / float64(rs.Trials)
		rep.DiffPagesPerTrial = float64(rs.DiffPages) / float64(rs.Trials)
	}

	if err := perfRestoreBound(cfg, rep, trials); err != nil {
		return nil, err
	}

	if outPath != "" {
		if err := AppendPerfHistory(outPath, rep); err != nil {
			return nil, err
		}
	}
	cfg.printf("perf: %.0f simcycles/s, %.1f trials/s, %.0f allocs/trial\n",
		rep.SimCyclesPerSec, rep.TrialsPerSec, rep.AllocsPerTrial)
	cfg.printf("perf: restore-bound %s: %.1f trials/s cow vs %.1f no-cow (%.2fx), %.1f/%d pages restored/trial, %.0f%% pruned\n",
		rep.RestoreBound.Benchmark, rep.RestoreBound.TrialsPerSec, rep.RestoreBound.TrialsPerSecNoCOW,
		rep.RestoreBound.CowSpeedup, rep.RestoreBound.RestoredPagesPerTrial,
		rep.RestoreBound.FootprintPages, rep.RestoreBound.PrunedFraction*100)
	return rep, nil
}

// restoreBoundSpec is the restore-bound microbenchmark: 128 threads
// increment 128 contiguous words (one dirty page) of a 4 MB footprint
// (4096 pages). A full-image restore copies and scans 4096x what the
// trial touched, so the workload isolates the restore/diff path the way
// Triad isolates memory bandwidth. The live work is latency-free (the
// stored value is computed, not loaded), and the tail is a load whose
// value feeds only the never-read r10: its memory latency stretches the
// back of the execution window with cycles where every strike lands on
// a provably dead register, giving the trial pruner a measurable hit
// rate on top of the restore-path win.
func restoreBoundSpec() *core.KernelSpec {
	const src = `
	    mov r0, %tid.x
	    mov r1, %ctaid.x
	    mov r2, %ntid.x
	    mad r3, r1, r2, r0
	    shl r4, r3, 2
	    ld.param r5, [0]
	    add r6, r5, r4
	    add r8, r3, 1
	    st.global [r6], r8
	    ld.global r9, [r6]
	    mul r10, r9, 3
	    exit
	`
	const n = 2 * 64
	return &core.KernelSpec{
		Name:     "RestoreBound",
		Prog:     isa.MustParse("restorebound", src),
		Grid:     isa.Dim3{X: 2},
		Block:    isa.Dim3{X: 64},
		Params:   []uint32{0},
		MemBytes: 4 << 20,
		Validate: func(mem []uint32) error {
			for i := 0; i < n; i++ {
				if mem[i] != uint32(i+1) {
					return fmt.Errorf("mem[%d] = %d, want %d", i, mem[i], i+1)
				}
			}
			return nil
		},
	}
}

// perfRestoreBound measures the restore-bound microbenchmark with page
// tracking on and off over the same derived trial set, plus the trial
// pruner's hit rate on it.
func perfRestoreBound(cfg Config, rep *PerfReport, trials int) error {
	spec := restoreBoundSpec()
	s, err := core.Prepare(cfg.Arch, spec, core.Options{Scheme: core.Baseline}, core.Want{Prune: true})
	if err != nil {
		return err
	}
	g, px := s.Golden, s.Prune
	rb := &RestoreBoundPerf{}
	rep.RestoreBound = rb
	rb.Benchmark = spec.Name
	rb.FootprintPages = (spec.MemBytes + gpu.PageBytes - 1) / gpu.PageBytes
	rb.Trials = trials
	ccfg := campaign.Config{Seed: 2}
	measure := func(noCOW bool) (float64, core.RestoreStats) {
		eng := core.NewEngine(cfg.Arch)
		eng.SetNoCOW(noCOW)
		eng.RunTrial(spec, g, ccfg.TrialSpec(g, spec.Name, 0)) // warm the pooled device
		n := 0
		start := time.Now()
		for time.Since(start) < 300*time.Millisecond {
			for i := 0; i < trials; i++ {
				eng.RunTrial(spec, g, ccfg.TrialSpec(g, spec.Name, i))
				n++
			}
		}
		return float64(n) / time.Since(start).Seconds(), eng.Stats()
	}
	var cowStats core.RestoreStats
	rb.TrialsPerSec, cowStats = measure(false)
	rb.TrialsPerSecNoCOW, _ = measure(true)
	rb.CowSpeedup = rb.TrialsPerSec / rb.TrialsPerSecNoCOW
	if cowStats.Trials > 0 {
		rb.RestoredPagesPerTrial = float64(cowStats.RestoredPages) / float64(cowStats.Trials)
	}

	pruned := 0
	for i := 0; i < trials; i++ {
		if _, ok := px.PruneTrial(g, ccfg.TrialSpec(g, spec.Name, i)); ok {
			pruned++
		}
	}
	rb.PrunedFraction = float64(pruned) / float64(trials)
	return nil
}

// CheckPerfRegression compares the newest entry of the perf history at
// path against the most recent earlier entry with the same HostKey and
// returns an error when campaign trials_per_sec regressed by more than
// the tolerance fraction (tolerance <= 0 selects 0.20). Entries from
// other host keys are skipped — wall-clock rates are only comparable on
// the same machine class — and a history with no comparable predecessor
// passes vacuously. The baseline it compares against, or the fact that
// it found none, is reported on stderr.
func CheckPerfRegression(path string, tolerance float64) error {
	return checkPerfRegression(path, tolerance, os.Stderr)
}

// checkPerfRegression is CheckPerfRegression reporting to log.
func checkPerfRegression(path string, tolerance float64, log io.Writer) error {
	if tolerance <= 0 {
		tolerance = 0.20
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var history []PerfReport
	if len(bytes.TrimSpace(data)) > 0 {
		if err := json.Unmarshal(data, &history); err != nil {
			return err
		}
	}
	if len(history) == 0 {
		return fmt.Errorf("harness: %s: empty perf history", path)
	}
	// Head: the newest entry that measured campaign throughput. Entries
	// with no trials_per_sec (a sampling-only study, a partial write)
	// cannot regress anything and are not the measurement under test.
	li := -1
	for i := len(history) - 1; i >= 0; i-- {
		if history[i].TrialsPerSec > 0 {
			li = i
			break
		}
	}
	if li < 0 {
		return vacuous(log) // nothing measured
	}
	last := &history[li]
	for i := li - 1; i >= 0; i-- {
		prev := &history[i]
		if prev.HostKey() != last.HostKey() || prev.TrialsPerSec <= 0 {
			continue
		}
		// Legacy entries predate run keying: with no timestamp or commit
		// the baseline is unattributable, so it cannot anchor a guard.
		if prev.Timestamp == "" || prev.Host.Commit == "" {
			continue
		}
		fmt.Fprintf(log, "harness: perf-guard baseline: commit %s @ %s, %.1f trials/s (head: %.1f trials/s)\n",
			prev.Host.Commit, prev.Timestamp, prev.TrialsPerSec, last.TrialsPerSec)
		if floor := prev.TrialsPerSec * (1 - tolerance); last.TrialsPerSec < floor {
			return fmt.Errorf("harness: perf regression on %s: %.1f trials/s is more than %.0f%% below the previous entry's %.1f (floor %.1f)",
				last.HostKey(), last.TrialsPerSec, tolerance*100, prev.TrialsPerSec, floor)
		}
		return nil
	}
	return vacuous(log)
}

// vacuous reports a guard that found nothing to compare against and
// passes.
func vacuous(log io.Writer) error {
	fmt.Fprintln(log, "harness: perf-guard vacuous: no same-host baseline")
	return nil
}

// stamp records when and on which host and commit the report is
// measured.
func (r *PerfReport) stamp() {
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)
	r.Host.OS = runtime.GOOS
	r.Host.Arch = runtime.GOARCH
	r.Host.CPUs = runtime.NumCPU()
	r.Host.GoVer = runtime.Version()
	r.Host.Commit = headCommit()
}

// headCommit identifies the measured revision: CI's GITHUB_SHA when set,
// otherwise a best-effort `git rev-parse`; empty when neither works.
func headCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// AppendPerfHistory appends the report to the JSON history at path, so
// BENCH_sim.json accumulates the performance trajectory across commits
// instead of only remembering the latest run. The file is a JSON array
// in time order. Unreadable or corrupt existing content is an error —
// history is never silently discarded.
func AppendPerfHistory(path string, rep *PerfReport) error {
	var history []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(bytes.TrimSpace(data)) > 0 {
			if err := json.Unmarshal(data, &history); err != nil {
				return err
			}
		}
	case os.IsNotExist(err):
		// First run: start a fresh history.
	default:
		return err
	}
	entry, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	history = append(history, entry)
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
