// Command flameinject runs a statistical fault-injection campaign:
// thousands of classified injection trials across a benchmark suite,
// executed on a pool of workers, reported as per-benchmark and
// fleet-wide coverage rates with Wilson 95% confidence intervals. The
// report is bit-identical for a given seed regardless of -parallel.
// The same campaign runs distributed across machines with flameserve
// and flameworker, which merge to a byte-identical report.
//
// Usage:
//
//	flameinject -trials 1000 -parallel 8
//	flameinject -bench SGEMM,LUD -scheme flame -model full -json report.json
//	flameinject -suite quick -trials 125 -strikes 2
//	flameinject -trials 200 -events campaign.jsonl
//	flameinject -trials 200 -events campaign.jsonl -resume   # continue an interrupted run
//	flameinject -scheme baseline -prune -explain Histogram:5   # re-run and explain one trial
//
// -explain prints the trial's event line, byte-identical to the one a
// -fingerprint -events run of the same flags streams, and a summary.
//
// SIGINT/SIGTERM stops gracefully: in-flight trials finish, the event
// stream is flushed, and the partial report is printed; with -events
// the run is resumable via -resume. Exit codes: 0 clean; 1 error; 2
// uncovered outcomes under the paper's fault model; 3 interrupted
// (partial, resumable).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/par"
	"flame/internal/prof"
	"flame/internal/stats"
)

func main() {
	cf := campaignflag.Bind(flag.CommandLine)
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); does not affect the report")
	events := flag.String("events", "", "stream JSONL progress events to this file (- for stderr); replayable with campaign.Replay")
	resume := flag.Bool("resume", false, "with -events FILE: skip trials already classified in FILE, append new ones, report the union")
	stratify := flag.Bool("stratify", false, "stratified importance sampling over (kernel, section, opcode-class) strata instead of the uniform site grid")
	pilot := flag.Int("pilot", 0, "with -stratify: uniform pilot trials per stratum in round 0 (0 = default)")
	strataKey := flag.String("strata-key", "", "with -stratify or -list-strata: stratification key, section-class (default) or liveness (adds the static dead/short/long/store site-class dimension)")
	audit := flag.Bool("audit", false, "with -stratify: rerun the uniform grid at the same budget and require the stratified estimates to fall inside its Wilson CIs (exit 1 on failure)")
	listStrata := flag.Bool("list-strata", false, "enumerate the injection-site strata per benchmark (sites, weights) and exit without running trials")
	profileRestore := flag.Bool("profile-restore", false, "one-shot: per-benchmark restore/diff/prune profile table instead of a campaign report")
	explain := flag.String("explain", "", "one-shot: re-run trial T of benchmark BENCH (BENCH:T), traced, and print its trial event line and a summary")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProf()

	cfg, err := cf.Config()
	if err != nil {
		fail("%v", err)
	}
	if cfg.CITarget != 0 && !*stratify {
		fail("-ci-target needs -stratify (adaptive sampler); flameserve applies it as coordinator early stop")
	}
	if *audit && !*stratify {
		fail("-audit needs -stratify")
	}
	skey, err := core.ParseStrataKey(*strataKey)
	if err != nil {
		fail("-strata-key: %v", err)
	}
	if *strataKey != "" && !*stratify && !*listStrata {
		fail("-strata-key needs -stratify or -list-strata")
	}
	if *stratify && *resume {
		fail("-stratify cannot -resume: the adaptive schedule depends on every prior outcome")
	}

	// One-shot single trial: the trial the campaign would run as T of
	// BENCH, re-run through the campaign's own executor.
	if *explain != "" {
		if *stratify || *resume || *audit || *listStrata || *profileRestore || *events != "" {
			fail("-explain re-runs one uniform-grid trial: it takes no -stratify, -resume, -audit, -list-strata, -profile-restore or -events")
		}
		line, res, err := explainTrial(cfg, *explain)
		if err != nil {
			fail("-explain: %v", err)
		}
		fmt.Print(string(line), describeTrial(res))
		stopProf()
		return
	}

	// One-shot strata listing: the enumerated injection-site partition
	// the stratified sampler would draw from, without running trials.
	if *listStrata {
		fmt.Print(strataTable(cfg.Arch, cfg.Opt, cfg.Specs, cfg.Model, skey))
		stopProf()
		return
	}

	// One-shot restore/prune profile: per-benchmark page accounting
	// instead of a campaign report.
	if *profileRestore {
		fmt.Print(restoreProfile(cfg))
		stopProf()
		return
	}

	cfg.Parallel = *parallel
	cfg.Stratify = *stratify
	cfg.Pilot = *pilot
	cfg.StrataKey = *strataKey

	// Resume: scan the previous event stream of this same campaign for
	// classified trials and skip exactly those; new events append to the
	// same file, and the final report is rebuilt from the union.
	if *resume {
		if *events == "" || *events == "-" {
			fail("-resume requires -events FILE")
		}
		if f, err := os.Open(*events); err == nil {
			done, derr := cfg.DoneSet(f)
			f.Close()
			if derr != nil {
				fail("%v", derr)
			}
			n := 0
			for _, m := range done {
				n += len(m)
			}
			logf("resuming: %d trials already classified in %s", n, *events)
			cfg.Skip = func(bench string, t int) bool { return done[bench][t] }
		} else if !os.IsNotExist(err) {
			fail("%v", err)
		}
	}

	var eventsF *os.File
	if *events == "-" {
		cfg.Events = os.Stderr
	} else if *events != "" {
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *resume {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*events, mode, 0o644)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		cfg.Events = f
		eventsF = f
	}

	// Graceful interrupt: finish in-flight trials, flush the stream,
	// print the partial report. A second signal kills immediately.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logf("interrupt: finishing in-flight trials and flushing events (again to kill)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	cfg.Stop = stop
	rep, err := campaign.Run(cfg)
	stopped := errors.Is(err, campaign.ErrStopped)
	if err != nil && !stopped {
		fail("%v", err)
	}

	// Under -resume the printed report is the union of the old stream
	// and this run, rebuilt by replay (lenient: a torn line from the
	// interrupted run was re-run above).
	if *resume && eventsF != nil {
		if err := eventsF.Sync(); err != nil {
			fail("%v", err)
		}
		f, err := os.Open(*events)
		if err != nil {
			fail("%v", err)
		}
		merged, ig, rerr := campaign.ReplayIntegrity(f)
		f.Close()
		if rerr != nil {
			fail("replay %s: %v", *events, rerr)
		}
		if ig.Malformed > 0 || ig.Dropped > 0 {
			logf("stream integrity: %s", ig)
		}
		rep = merged
	}
	fmt.Print(rep)
	if err := cf.WriteJSON(rep); err != nil {
		fail("%v", err)
	}

	if stopped {
		if *events != "" && *events != "-" {
			logf("stopped early: partial report; resume with -events %s -resume", *events)
		} else {
			logf("stopped early: partial report")
		}
		stopProf()
		os.Exit(3)
	}

	// Audit protocol: rerun the exact uniform grid at the same budget
	// and require every stratified point estimate to land inside the
	// grid's Wilson 95% interval.
	if *audit {
		ar, aerr := campaign.Audit(cfg, rep)
		if aerr != nil {
			fail("audit: %v", aerr)
		}
		fmt.Print(ar)
		if !ar.Pass {
			stopProf()
			os.Exit(1)
		}
	}
	if campaignflag.Uncovered(&cfg, rep) {
		stopProf() // os.Exit skips the deferred flush
		os.Exit(2)
	}
}

// explainTrial re-runs trial T of benchmark BENCH (ref is BENCH:T) of
// the campaign cfg describes, traced, on the executor a campaign worker
// uses, and returns its event line (as a traced campaign streams it)
// and its result.
func explainTrial(cfg campaign.Config, ref string) ([]byte, *core.TrialResult, error) {
	name, idx, ok := strings.Cut(ref, ":")
	t, err := strconv.Atoi(idx)
	if !ok || err != nil || t < 0 {
		return nil, nil, fmt.Errorf("malformed trial %q (want BENCH:T, T a trial index >= 0)", ref)
	}
	b, err := bench.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	spec := b.Spec()
	cfg.Specs, cfg.Trace = []*core.KernelSpec{spec}, true
	set, err := cfg.Prepare()
	if err != nil {
		return nil, nil, err
	}
	res := cfg.NewExecutor(set).Trial(0, cfg.TrialSpec(set[0].Golden, spec.Name, t))
	line, err := campaign.MarshalTrialEvent(spec.Name, t, res)
	return line, res, err
}

// describeTrial renders an explained trial for a reader: outcome, what
// the strike corrupted, detection latency, propagation depth and, for an
// SDC, the corruption fingerprint.
func describeTrial(r *core.TrialResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome: %s (strikes %d, excluded %d, detections %d, recoveries %d, cycles %d)\n",
		r.Outcome, r.Strikes, r.ExcludedStrikes, r.Detections, r.Recoveries, r.Cycles)
	if r.Description != "" {
		fmt.Fprintf(&b, "strike: %s\n", r.Description)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "error: %s\n", r.Err)
	}
	cycles := func(n int64, none string) string {
		if n < 0 {
			return none
		}
		return fmt.Sprintf("%d cycles", n)
	}
	if p := r.Prop; p != nil {
		fmt.Fprintf(&b, "detection latency: %s (strike at cycle %d)\n", cycles(p.DetectLatency, "undetected"), p.StrikeCycle)
		fmt.Fprintf(&b, "propagation depth: %s (%d tainted instructions)\n",
			cycles(p.Depth, "no tainted global store"), p.TaintedInsts)
		if p.Fingerprint != "" {
			fmt.Fprintf(&b, "fingerprint: %s (%d words / %d pages diverged)\n", p.Fingerprint, p.DivergedWords, p.DivergedPages)
		}
	} else if r.Pruned {
		b.WriteString("propagation: none, the trial was pruned (classified without simulation)\n")
	} else {
		b.WriteString("propagation: none, no strike fired\n")
	}
	return b.String()
}

// strataTable renders the -list-strata view: every benchmark's
// enumerated (kernel, section, opcode-class) strata with exact site
// counts and their share of the injectable span.
func strataTable(arch gpu.Config, opt core.Options, specs []*core.KernelSpec, model flame.FaultModel, key core.StrataKey) string {
	t := &stats.Table{Header: []string{
		"benchmark", "stratum", "sites", "weight",
	}}
	setups, err := core.PrepareAll(arch, specs, opt, core.Want{Strata: true, Model: model, Key: key})
	if err != nil {
		fail("%v", err)
	}
	var out strings.Builder
	for i, spec := range specs {
		sm := setups[i].Strata
		inj := sm.InjectableSites()
		for _, st := range sm.Strata {
			t.Add(spec.Name, st.Key(), fmt.Sprintf("%d", st.Sites),
				fmt.Sprintf("%.4f", float64(st.Sites)/float64(inj)))
		}
		fmt.Fprintf(&out, "%s: span %d sites, %d injectable (%d strata), %d no-injection tail\n",
			spec.Name, sm.Span, inj, len(sm.Strata), sm.NoInjectionSites)
	}
	return fmt.Sprintf("injection-site strata: model=%s scheme=%s wcdl=%d\n%s%s",
		model, opt.Scheme, opt.WCDL, out.String(), t.String())
}

// restoreProfile runs every selected benchmark's trials as its own
// pruned single-worker campaign and renders the page-accounting table
// behind the -profile-restore flag: the memory footprint in pages, how
// many pages trials actually dirty (and so how many a restore copies
// and a diff scans), how many cycles simulated trials skipped by
// starting from the golden cursor and how many fault-free prefix cycles
// they still simulated, and what fraction of trials the pruner
// classifies without simulation — or why pruning is unavailable for
// the benchmark.
func restoreProfile(cfg campaign.Config) string {
	t := &stats.Table{Header: []string{
		"benchmark", "footprint", "dirty/trial", "restored/trial",
		"diff/trial", "resumed/trial", "prefix/trial", "pruned", "prune status",
	}}
	// One campaign per benchmark and worker, on one engine, so the
	// restore counters are the benchmark's own; rows stay in spec order.
	type row struct {
		br campaign.BenchReport
		st core.RestoreStats
	}
	rows := make([]row, len(cfg.Specs))
	err := par.For(len(cfg.Specs), func(b int) error {
		bc := cfg
		bc.Specs, bc.Prune, bc.Parallel = cfg.Specs[b:b+1], true, 1
		bc.RestoreStats = &rows[b].st
		rep, err := campaign.Run(bc)
		if err != nil {
			return err
		}
		rows[b].br = rep.Benchmarks[0]
		return nil
	})
	if err != nil {
		fail("%v", err)
	}
	for b, spec := range cfg.Specs {
		br, st := &rows[b].br, rows[b].st
		perTrial := func(n int64) string {
			if st.Trials == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(n)/float64(st.Trials))
		}
		status := "ok"
		if br.PruneDisabled != "" {
			status = br.PruneDisabled
		}
		footprint := (spec.MemBytes + gpu.PageBytes - 1) / gpu.PageBytes
		t.Add(spec.Name,
			fmt.Sprintf("%d pages", footprint),
			perTrial(st.DirtyPages), perTrial(st.RestoredPages), perTrial(st.DiffPages),
			perTrial(st.ResumedCycles), perTrial(st.PrefixCycles),
			fmt.Sprintf("%d/%d", br.PrunedMasked+br.PrunedNoInjection, cfg.Trials), status)
	}
	return fmt.Sprintf("restore/prune profile: trials=%d/bench scheme=%s model=%s seed=%d\n%s",
		cfg.Trials, cfg.Opt.Scheme, cfg.Model, cfg.Seed, t.String())
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flameinject: "+format+"\n", args...)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flameinject: "+format+"\n", args...)
	os.Exit(1)
}
