package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"flame/internal/campaign"
	"flame/internal/dist"
)

// fleetLog collects what the fleet's public hooks report: BeforeTrial
// calls and worker log lines, stamped as they arrive.
type fleetLog struct {
	mu     sync.Mutex
	events []fleetEvent
}

type fleetEvent struct {
	at    time.Time
	kind  string // "joined", "trial", "shard_start", "shard_end"
	bench string
	trial int
}

func (l *fleetLog) add(e fleetEvent) {
	e.at = time.Now()
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// workerTimeline is one worker's observed run.
type workerTimeline struct {
	start  time.Time
	events []fleetEvent
}

// fleetRun is one distributed campaign.
type fleetRun struct {
	start, coordReady, final time.Time
	report                   *dist.FinalReport
	json                     []byte
	workers                  []workerTimeline
	metrics                  map[string]float64 // coordinator /metrics after the merge
	alloc                    uint64
}

// firstTrial is the first BeforeTrial call across workers.
func (r *fleetRun) firstTrial() time.Time {
	t := r.final
	for _, w := range r.workers {
		for _, e := range w.events {
			if e.kind == "trial" && e.at.Before(t) {
				t = e.at
			}
		}
	}
	return t
}

func (r *fleetRun) rep(simCycles int64) rep {
	f := r.report.Report.Fleet
	return rep{
		wall: r.final.Sub(r.start), setup: r.firstTrial().Sub(r.start),
		ops: f.Trials + r.report.Integrity.Missing, failed: f.Internal + r.report.Integrity.Missing,
		simCycles: simCycles,
	}
}

// fleetShardSize is the fleet's trials per shard. At the default (25)
// the last shard of SGEMM or LUD runs alone for up to 2 s while the
// other worker idles, and which shard ends last varies from repetition
// to repetition; 8 keeps that tail under 0.7 s.
const fleetShardSize = 8

// runFleetOnce runs the campaign through an in-process coordinator on
// 127.0.0.1 and one RunWorker goroutine per campaign worker, over a
// fresh state directory. The run ends when the merged FinalReport is
// available; the workers and server are then stopped and waited for.
// Unless observe is set, the workers get no BeforeTrial or Logf hook and
// the run records no worker events.
func runFleetOnce(cfg campaign.Config, stateDir string, observe bool) (*fleetRun, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	r := &fleetRun{}
	a0 := allocBytes()
	r.start = time.Now()
	coord, err := dist.NewCoordinator(dist.CoordConfig{Info: dist.InfoFromConfig(&cfg), StateDir: stateDir, ShardSize: fleetShardSize})
	if err != nil {
		return nil, err
	}
	r.coordReady = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		srv.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	bg.Add(1)
	go func() {
		defer bg.Done()
		coord.Run(ctx)
	}()
	stop := func() {
		cancel()
		srv.Close()
		bg.Wait()
	}

	url := "http://" + ln.Addr().String()
	logs := make([]fleetLog, cfg.Parallel)
	r.workers = make([]workerTimeline, cfg.Parallel)
	errs := make(chan error, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Parallel; i++ {
		wg.Add(1)
		r.workers[i].start = time.Now()
		wc := dist.WorkerConfig{URL: url, Name: fmt.Sprintf("bench-worker-%d", i)}
		if observe {
			l := &logs[i]
			wc.BeforeTrial = func(bench string, t int) error {
				l.add(fleetEvent{kind: "trial", bench: bench, trial: t})
				return nil
			}
			wc.Logf = func(format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				switch {
				case strings.HasPrefix(msg, "joined "):
					l.add(fleetEvent{kind: "joined"})
				case strings.HasPrefix(msg, "lease ") && strings.Contains(msg, ": running "):
					l.add(fleetEvent{kind: "shard_start"})
				case strings.HasPrefix(msg, "lease ") && strings.HasSuffix(msg, " complete"):
					l.add(fleetEvent{kind: "shard_end"})
				}
			}
		}
		go func() {
			defer wg.Done()
			err := dist.RunWorker(ctx, wc)
			if err != nil && !errors.Is(err, context.Canceled) {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	select {
	case <-coord.Done():
	case <-workersDone:
		// Every worker exited before the merge: the campaign cannot finish.
	}
	r.final = time.Now()
	r.alloc = allocBytes() - a0
	r.report = coord.Final()
	if r.report != nil {
		r.metrics, err = scrapeMetrics(url + "/metrics")
	}
	// Workers exit on their next lease poll, which the coordinator
	// answers Done.
	<-workersDone
	stop()
	close(errs)
	for e := range errs {
		return nil, e
	}
	if err != nil {
		return nil, err
	}
	if r.report == nil {
		return nil, fmt.Errorf("fleet ended without a merged report")
	}
	if r.json, err = r.report.Report.JSON(); err != nil {
		return nil, err
	}
	for i := range logs {
		r.workers[i].events = logs[i].events
	}
	return r, nil
}

// scrapeMetrics reads a Prometheus text page into name -> value, summing
// series of the same name.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// spans rebuilds the fleet's spans from the stamps of its hook calls:
// coordinator set-up (the timed NewCoordinator call), each worker's
// golden replication and join (from its start to its "joined" log
// line), its shards (from a lease's "running" line to its "complete"
// line) and, inside them, its trials, and the merge from the last shard
// completion to the merged report. A trial ends at the worker's next
// BeforeTrial or at its shard's completion line, so a shard's last trial
// includes the shard's final stream flush. Lease requests between shards
// and the server start stay uncovered. Shards are found by the wording
// of the worker's log lines, so a run whose lines no longer pair up is
// an error rather than a ledger with empty shards.
func (r *fleetRun) spans(tr *tracer, pruned func(bench string, t int) bool) (root int, trials []trialRec, err error) {
	root = tr.add(0, "dist.fleet", 0, r.start, r.final)
	tr.add(root, "dist.coordinator_setup", 0, r.start, r.coordReady)
	var lastShardEnd time.Time
	for i, w := range r.workers {
		lane := i + 1
		joined := false
		shard := 0 // the open shard span, 0 between shards
		var pending *trialRec
		closeTrial := func(at time.Time) {
			if pending == nil {
				return
			}
			pending.end = at
			name := "core.trial"
			if pending.pruned {
				name = "core.prune"
			}
			tr.add(shard, name, lane, pending.start, pending.end)
			trials = append(trials, *pending)
			pending = nil
		}
		for _, e := range w.events {
			switch e.kind {
			case "joined":
				joined = true
				tr.add(root, "dist.worker_setup", lane, w.start, e.at)
			case "shard_start":
				if shard != 0 {
					return 0, nil, fmt.Errorf("worker %d: a lease has no completion line (lease lost, or the log wording changed)", i)
				}
				shard = tr.add(root, "dist.shard", lane, e.at, e.at)
			case "trial":
				if shard == 0 {
					return 0, nil, fmt.Errorf("worker %d: trial %s/%d outside any lease's running line (log wording changed?)", i, e.bench, e.trial)
				}
				closeTrial(e.at)
				pending = &trialRec{bench: e.bench, trial: e.trial, start: e.at, pruned: pruned(e.bench, e.trial)}
			case "shard_end":
				if shard == 0 {
					return 0, nil, fmt.Errorf("worker %d: lease completion line without a running line", i)
				}
				closeTrial(e.at)
				tr.spans[shard-1].end = e.at
				shard = 0
				if e.at.After(lastShardEnd) {
					lastShardEnd = e.at
				}
			}
		}
		if shard != 0 {
			return 0, nil, fmt.Errorf("worker %d: its last lease has no completion line (lease lost, or the log wording changed)", i)
		}
		if len(w.events) > 0 && !joined {
			return 0, nil, fmt.Errorf("worker %d: no joined line (log wording changed?)", i)
		}
	}
	if len(trials) == 0 {
		return 0, nil, fmt.Errorf("no BeforeTrial calls observed")
	}
	tr.add(root, "dist.merge", 0, lastShardEnd, r.final)
	return root, trials, nil
}

// runFleet drives the fleet workload: the campaign workload's exact
// config through internal/dist.
func runFleet(o *options) (*outcome, error) {
	cfg, err := campaignConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	// The in-process campaign is the reference the merged report must
	// equal byte for byte; it also supplies each trial's simulated
	// cycles and pruned flag, which are deterministic per trial.
	ref, err := runCampaign(cfg)
	if err != nil {
		return nil, err
	}
	checkReports(out, "fleet reference campaign", []*campRun{ref}, pinFor(o, "campaign"), true)
	refRep := ref.rep()
	type key struct {
		bench string
		trial int
	}
	refTrials := map[key]trialRec{}
	for _, t := range ref.trials {
		refTrials[key{t.bench, t.trial}] = t
	}
	stateDir := filepath.Join(o.outDir, fmt.Sprintf("fleet-state-%d", os.Getpid()))
	var runs []*fleetRun
	once := func(observe bool) (*fleetRun, error) {
		r, err := runFleetOnce(cfg, stateDir, observe)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if !r.report.Complete {
			out.problem("fleet: merged report incomplete (%d quarantined shards, %d missing trials)",
				len(r.report.Quarantined), r.report.Integrity.Missing)
		}
		if string(r.json) != string(ref.json) {
			out.problem("fleet: merged report differs from the in-process campaign's")
		}
		return r, nil
	}
	if !o.traced {
		reps, err := measure(o.budget, func() (rep, error) {
			r, err := once(true)
			if err != nil {
				return rep{}, err
			}
			return r.rep(refRep.simCycles), nil
		})
		if err != nil {
			return nil, err
		}
		for _, r := range reps {
			out.attempted += r.ops
			out.failed += r.failed
		}
		out.reps = reps
		out.metrics = endToEnd(reps, nil)
		return out, nil
	}

	// Bare and observed repetitions alternate as in the campaign
	// workloads; the spans come from the first observed one.
	var bare, observed time.Duration
	var traced *fleetRun
	for _, observe := range []bool{false, true, true, false} {
		r, err := once(observe)
		if err != nil {
			return nil, err
		}
		if !observe {
			bare += r.final.Sub(r.start)
			continue
		}
		observed += r.final.Sub(r.start)
		if traced == nil {
			traced = r
		}
	}
	rp := traced.rep(refRep.simCycles)
	out.attempted, out.failed = rp.ops, rp.failed
	tr := &tracer{run: fmt.Sprintf("fleet/seed%d", o.seed)}
	root, trials, err := traced.spans(tr, func(b string, t int) bool { return refTrials[key{b, t}].pruned })
	if err != nil {
		return nil, fmt.Errorf("fleet trace: %w", err)
	}
	for i := range trials {
		trials[i].cycles = refTrials[key{trials[i].bench, trials[i].trial}].cycles
	}
	d, err := decompose(tr, cfg)
	if err != nil {
		return nil, err
	}
	met := zeroLayerMetrics()
	d.fill(met)
	fillTrialMetrics(met, trials, d.prefixFn(cfg))
	met["core.alloc_kb_per_trial"] = float64(traced.alloc) / 1024 / float64(len(trials))
	var setupMax, busy, window time.Duration
	var lastTrial time.Time
	for _, s := range tr.spans {
		switch s.name {
		case "dist.worker_setup":
			if s.dur() > setupMax {
				setupMax = s.dur()
			}
			window += traced.final.Sub(s.end)
		case "dist.shard":
			busy += s.dur()
		case "core.trial", "core.prune":
			if s.start.After(lastTrial) {
				lastTrial = s.start
			}
		}
	}
	met["dist.worker_setup_s"] = setupMax.Seconds()
	if window > 0 {
		met["dist.idle_frac"] = 1 - busy.Seconds()/window.Seconds()
	}
	met["dist.leases"] = traced.metrics["flame_leases_granted_total"]
	met["dist.leases_lost"] = traced.metrics["flame_shard_retries_total"]
	met["dist.tail_s"] = traced.final.Sub(lastTrial).Seconds()
	met["trace.overhead_frac"] = observed.Seconds()/bare.Seconds() - 1
	met["trace.span_coverage"] = tr.coverage(root)
	out.metrics = met
	return out, writeTrace(o, tr, root)
}
