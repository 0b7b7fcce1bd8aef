package campaign

import (
	"fmt"
	"runtime"
	"sync"

	"flame/internal/core"
	"flame/internal/telemetry"
)

// trial is one planned trial of a batch.
type trial struct {
	b int // benchmark index in Config.Specs
	t int // per-benchmark trial index, as streamed
	// ss is the stratum the trial is drawn from and draw its index in
	// the stratum's seed stream; ss is nil on the uniform grid.
	ss   *stratumState
	draw int
}

// pool is the campaign's one trial executor, shared by the uniform grid
// (one batch) and the stratified sampler (one batch per round). Each
// worker owns an Executor, reused across trials and batches with
// bit-identical results, so reports stay independent of the worker
// count.
type pool struct {
	cfg   *Config
	set   []core.Setup  // per workload, in spec order
	recs  *setupRecords // the set-up records the report is assembled from
	str   *streamer     // nil without Config.Events
	execs []*Executor
}

// newPool runs the campaign's set-up (Config.Prepare) and writes its
// event lines; total is the planned trial count the progress records
// count towards.
func newPool(cfg *Config, total int) (*pool, error) {
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	p := &pool{cfg: cfg}
	if cfg.Events != nil {
		p.str = newStreamer(cfg.Events, total)
	}
	set, err := cfg.Prepare()
	if err != nil {
		return nil, err
	}
	p.set = set
	p.recs = cfg.setupRecords(set, parallel, total)
	if p.str != nil {
		p.str.setup(p.recs)
	}
	for w := 0; w < parallel; w++ {
		p.execs = append(p.execs, cfg.NewExecutor(set))
	}
	return p, nil
}

// Executor runs trials of one campaign on one worker: a pooled engine
// (one device per workload, restored from the golden image between
// trials) and, under Config.Trace, a propagation tracer that is reset
// per trial and records only deterministic per-trial facts. The
// in-process pool gives each of its workers one, and each distributed
// worker process runs its shards on one. An Executor is not safe for
// concurrent use.
type Executor struct {
	cfg    *Config
	set    []core.Setup
	eng    *core.Engine
	tracer core.TrialObserver // nil without Config.Trace
}

// newEngine builds an executor's engine; the restore-equivalence test
// swaps in full-copy (no-COW) engines.
var newEngine = core.NewEngine

// NewExecutor builds an executor over the set-up Prepare returned.
func (cfg *Config) NewExecutor(set []core.Setup) *Executor {
	x := &Executor{cfg: cfg, set: set, eng: newEngine(cfg.Arch)}
	if cfg.Trace {
		x.tracer = telemetry.NewTracer()
	}
	return x
}

// Trial runs one trial of benchmark b (its index in Config.Specs)
// through the engine's prune-or-simulate step, with the tracer attached.
func (x *Executor) Trial(b int, ts core.TrialSpec) *core.TrialResult {
	s := &x.set[b]
	ts.Observer = x.tracer
	return x.eng.Trial(x.cfg.Specs[b], s.Golden, s.Prune, ts)
}

// Stats returns the engine's restore/diff page counters so far.
func (x *Executor) Stats() core.RestoreStats { return x.eng.Stats() }

// run executes batch, writing trial i's record to out[i], and returns
// how many trials ran. Trials are dispatched in batch order until
// Config.Stop closes; dispatched trials finish, so the trials that ran
// are always batch[:n], and n < len(batch) only when the campaign was
// stopped.
func (p *pool) run(batch []trial, out []trialRecord) int {
	// One queued trial per worker: a worker that finishes picks up its
	// next trial without waiting for the dispatcher to be scheduled.
	next := make(chan int, len(p.execs))
	var wg sync.WaitGroup
	for _, x := range p.execs {
		wg.Add(1)
		go func(x *Executor) {
			defer wg.Done()
			for i := range next {
				p.runTrial(x, &batch[i], &out[i])
			}
		}(x)
	}
	n := 0
	for n < len(batch) && !closed(p.cfg.Stop) {
		select {
		case <-p.cfg.Stop:
		case next <- n:
			n++
		}
	}
	close(next)
	wg.Wait()
	return n
}

// runTrial derives one trial's spec, runs it on x and streams it.
func (p *pool) runTrial(x *Executor, tr *trial, out *trialRecord) {
	spec, g := p.cfg.Specs[tr.b], p.set[tr.b].Golden
	if p.str != nil {
		p.str.trialStart(spec.Name, tr.t)
	}
	var ts core.TrialSpec
	if tr.ss != nil {
		ts = p.cfg.stratumTrialSpec(g, tr.ss, tr.draw)
	} else {
		ts = p.cfg.TrialSpec(g, spec.Name, tr.t)
	}
	res := x.Trial(tr.b, ts)
	if tr.ss != nil {
		res.Stratum = tr.ss.st.Key()
	}
	*out = trialRecord{bench: spec.Name, t: tr.t, r: *res}
	if p.str != nil {
		p.str.trial(spec.Name, tr.t, res)
	}
}

// close finishes the campaign: it assembles the report from the set-up
// records and the trials that ran, sums the engines' restore counters
// (into Config.RestoreStats too), writes the campaign_done record and
// returns ErrStopped when Stop cut the run short.
func (p *pool) close(ran []trialRecord, stopped bool) (*Report, error) {
	rep := assemble(p.recs, ran, &Integrity{})
	var rs core.RestoreStats
	for _, x := range p.execs {
		rs.Add(x.Stats())
	}
	if p.cfg.RestoreStats != nil {
		p.cfg.RestoreStats.Add(rs)
	}
	if p.str != nil {
		p.str.campaignDone(rep, rs)
		if err := p.str.err(); err != nil {
			return nil, fmt.Errorf("campaign: event stream: %w", err)
		}
	}
	if stopped {
		return rep, ErrStopped
	}
	return rep, nil
}

// closed reports whether stop has been closed (never, for nil).
func closed(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
