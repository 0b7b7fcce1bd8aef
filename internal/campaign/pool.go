package campaign

import (
	"fmt"
	"runtime"
	"sync"

	"flame/internal/core"
	"flame/internal/obs"
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
// worker owns an engine — one pooled device per workload, reused
// across trials and batches with bit-identical results — and a tracer
// that is reset per trial and records only deterministic per-trial
// facts, so reports stay independent of the worker count.
type pool struct {
	cfg     *Config
	set     []core.Setup // per workload, in spec order
	str     *streamer    // nil without Config.Events
	engines []*core.Engine
	tracers []core.TrialObserver // nil entries without Config.Trace
}

// newPool runs the campaign's set-up — every benchmark's golden run on
// GOMAXPROCS workers, recording the pruning oracle under Config.Prune
// and whatever else want asks for — and writes its event lines; total
// is the planned trial count the progress records count towards.
func newPool(cfg *Config, want core.Want, total int) (*pool, error) {
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	p := &pool{cfg: cfg}
	if cfg.Events != nil {
		p.str = newStreamer(cfg.Events, total)
	}
	want.Prune = cfg.Prune
	set, err := core.PrepareAll(cfg.Arch, cfg.Specs, cfg.Opt, want)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	p.set = set
	emitSetup(p.str, cfg, set, parallel)
	for w := 0; w < parallel; w++ {
		eng := core.NewEngine(cfg.Arch)
		eng.SetNoCOW(cfg.NoCOW)
		p.engines = append(p.engines, eng)
		var tracer core.TrialObserver
		if cfg.Trace {
			tracer = obs.NewTracer()
		}
		p.tracers = append(p.tracers, tracer)
	}
	return p, nil
}

// run executes batch, writing trial i's result to out[i], and returns
// how many trials ran. Trials are dispatched in batch order until
// Config.Stop closes; dispatched trials finish, so the trials that ran
// are always batch[:n], and n < len(batch) only when the campaign was
// stopped.
func (p *pool) run(batch []trial, out []core.TrialResult) int {
	// One queued trial per worker: a worker that finishes picks up its
	// next trial without waiting for the dispatcher to be scheduled.
	next := make(chan int, len(p.engines))
	var wg sync.WaitGroup
	for w := range p.engines {
		wg.Add(1)
		go func(eng *core.Engine, tracer core.TrialObserver) {
			defer wg.Done()
			for i := range next {
				p.runTrial(eng, tracer, &batch[i], &out[i])
			}
		}(p.engines[w], p.tracers[w])
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

// runTrial derives one trial's spec, runs it through the engine's
// prune-or-simulate step and streams it.
func (p *pool) runTrial(eng *core.Engine, tracer core.TrialObserver, tr *trial, out *core.TrialResult) {
	spec, s := p.cfg.Specs[tr.b], &p.set[tr.b]
	g := s.Golden
	if p.str != nil {
		p.str.trialStart(spec.Name, tr.t)
	}
	var ts core.TrialSpec
	if tr.ss != nil {
		ts = p.cfg.stratumTrialSpec(g, tr.ss, tr.draw)
	} else {
		ts = p.cfg.TrialSpec(g, spec.Name, tr.t)
	}
	ts.Observer = tracer
	res := eng.Trial(spec, g, s.Prune, ts)
	if tr.ss != nil {
		res.Stratum = tr.ss.st.Key()
	}
	*out = *res
	if p.str != nil {
		p.str.trial(spec.Name, tr.t, res)
	}
}

// close finishes the campaign: it sums the engines' restore counters
// (into Config.RestoreStats too), completes the fleet row, writes the
// campaign_done record and returns ErrStopped when Stop cut the run
// short.
func (p *pool) close(rep *Report, stopped bool) (*Report, error) {
	var rs core.RestoreStats
	for _, eng := range p.engines {
		rs.Add(eng.Stats())
	}
	if p.cfg.RestoreStats != nil {
		p.cfg.RestoreStats.Add(rs)
	}
	rep.Fleet.Benchmark = "fleet"
	rep.Fleet.Finish()
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
