package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// URL is the coordinator base URL (e.g. http://127.0.0.1:8077).
	URL string
	// Name identifies the worker to the coordinator; defaults to
	// hostname-pid.
	Name string
	// Client is the HTTP client (default: 30s timeout).
	Client *http.Client
	// FlushEvery batches this many trial lines per events post
	// (default 8). Smaller batches lose less work when the worker dies.
	FlushEvery int
	// MetricsAddr, when set, serves this worker's Prometheus-text
	// /metrics endpoint on the address (e.g. ":9090") for the lifetime
	// of RunWorker.
	MetricsAddr string
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)

	// Test/chaos hooks.
	//
	// BeforeTrial runs before each trial; a non-nil error makes the
	// worker abandon everything instantly — no flush, no release — the
	// in-process equivalent of kill -9 mid-shard.
	BeforeTrial func(bench string, trial int) error
	// CorruptGolden flips a bit in the first golden signature, modelling
	// a worker whose replica computed a wrong reference (bad memory,
	// mismatched build). The coordinator's vote must reject it.
	CorruptGolden bool
}

// errLeaseLost marks a shard abandoned because the coordinator no
// longer honors the lease (expired and re-leased, or coordinator
// restarted into a new epoch). The worker just leases again.
var errLeaseLost = errors.New("dist: lease lost")

// RunWorker joins a coordinator, then leases, computes, and streams
// shards until the campaign is done or ctx is canceled.
//
// Failure behavior:
//   - Coordinator briefly unreachable: posts retry with backoff, so a
//     coordinator restart mid-campaign is invisible beyond a stale
//     lease (which the new epoch rejects, and the worker re-leases).
//   - Lease canceled or rejected: the shard is abandoned and the loop
//     continues — another worker (or this one) picks it up.
//   - ctx canceled (SIGINT/SIGTERM): the in-flight trial finishes, the
//     batch is flushed, the lease is released without penalty, and
//     ctx.Err() is returned — every streamed trial survives for resume.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.Client == nil {
		wc.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if wc.FlushEvery <= 0 {
		wc.FlushEvery = 8
	}
	if wc.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wc.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if wc.Logf == nil {
		wc.Logf = func(string, ...any) {}
	}
	w := &worker{wc: wc}
	if wc.MetricsAddr != "" {
		ln, err := net.Listen("tcp", wc.MetricsAddr)
		if err != nil {
			return fmt.Errorf("dist: metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", w.handleMetrics)
		srv := &http.Server{Handler: mux}
		defer srv.Close()
		go srv.Serve(ln)
		wc.Logf("metrics on http://%s/metrics", ln.Addr())
	}
	if err := w.setup(ctx); err != nil {
		return err
	}
	return w.loop(ctx)
}

// workerMetrics is the worker's own /metrics state: plain monotone
// counters updated from the trial loop, read from the HTTP handler —
// atomics, because those are different goroutines.
type workerMetrics struct {
	trials, pruned  atomic.Int64
	leases, lost    atomic.Int64
	flushes         atomic.Int64
	restored, dirty atomic.Int64
	diff            atomic.Int64
}

func (w *worker) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	p := newProm()
	p.Gauge("flame_worker_info", "Worker identity; the value is always 1.", 1, "name", w.wc.Name)
	p.Counter("flame_worker_trials_total", "Trials computed (including pruned).", float64(w.m.trials.Load()))
	p.Counter("flame_worker_pruned_total", "Trials classified without simulation.", float64(w.m.pruned.Load()))
	p.Counter("flame_worker_leases_total", "Shard leases acquired.", float64(w.m.leases.Load()))
	p.Counter("flame_worker_leases_lost_total", "Leases lost to expiry or coordinator restart.", float64(w.m.lost.Load()))
	p.Counter("flame_worker_flushes_total", "Event batches streamed to the coordinator.", float64(w.m.flushes.Load()))
	p.Counter("flame_worker_restored_pages_total", "Pages copied back from the golden image before launches.", float64(w.m.restored.Load()))
	p.Counter("flame_worker_dirty_pages_total", "Pages written by trials.", float64(w.m.dirty.Load()))
	p.Counter("flame_worker_diff_pages_total", "Pages compared during classification.", float64(w.m.diff.Load()))
	rw.Header().Set("Content-Type", promContentType)
	rw.Write(p.Bytes())
}

// worker is one campaign replica: its own set-up and trial executor,
// reconstructed from the coordinator's campaign identity.
type worker struct {
	wc   WorkerConfig
	cfg  campaign.Config
	set  []core.Setup
	x    *campaign.Executor
	sigs map[string]GoldenSig
	hb   time.Duration
	m    workerMetrics
}

// setup fetches the campaign, replicates the golden runs, and joins
// (casting the hash vote).
func (w *worker) setup(ctx context.Context) error {
	var info campaign.Identity
	if err := w.getRetry(ctx, "/v1/campaign", &info); err != nil {
		return fmt.Errorf("dist: fetch campaign: %w", err)
	}
	cfg, err := campaignflag.Resolve(info)
	if err != nil {
		return fmt.Errorf("dist: reconstruct campaign: %w", err)
	}
	w.cfg = cfg
	// The pruning oracle is a deterministic function of (arch, spec,
	// golden), so every replica prunes exactly the same trials the
	// coordinator would, and streamed lines stay byte-identical.
	w.set, err = w.cfg.Prepare()
	if err != nil {
		return fmt.Errorf("dist: set-up: %w", err)
	}
	w.x = w.cfg.NewExecutor(w.set)
	w.sigs = map[string]GoldenSig{}
	for i, spec := range cfg.Specs {
		w.sigs[spec.Name] = Signature(w.set[i].Golden)
	}
	if w.wc.CorruptGolden {
		for name, sig := range w.sigs {
			sig.Hash = "deadbeef" + sig.Hash[8:]
			w.sigs[name] = sig
			break
		}
	}
	return w.join(ctx)
}

// join casts the golden-hash vote. Called again whenever the
// coordinator stops recognizing this worker — a restarted coordinator
// has an empty registry, and re-voting is exactly the handshake it
// needs before handing out leases.
func (w *worker) join(ctx context.Context) error {
	var jr JoinResponse
	if err := w.postRetry(ctx, "/v1/join", JoinRequest{Worker: w.wc.Name, Goldens: w.sigs}, &jr); err != nil {
		return fmt.Errorf("dist: join: %w", err)
	}
	if !jr.OK {
		return fmt.Errorf("dist: join rejected: %s", jr.Reason)
	}
	w.wc.Logf("joined %s as %q (%d benchmarks replicated)", w.wc.URL, w.wc.Name, len(w.sigs))
	return nil
}

// loop leases shards until the campaign is done.
func (w *worker) loop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := w.postRetry(ctx, "/v1/lease", LeaseRequest{Worker: w.wc.Name}, &lr); err != nil {
			// A coordinator restarted mid-campaign forgets its workers;
			// its 403 means "who are you?" — re-cast the vote and retry.
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusForbidden {
				if jerr := w.join(ctx); jerr == nil {
					continue
				}
			}
			return fmt.Errorf("dist: lease: %w", err)
		}
		switch {
		case lr.Done:
			w.wc.Logf("campaign done; worker exiting")
			return nil
		case lr.Shard == nil:
			wait := time.Duration(lr.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = 200 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		default:
			w.hb = time.Duration(lr.HeartbeatMS) * time.Millisecond
			if w.hb <= 0 {
				w.hb = time.Second
			}
			err := w.runShard(ctx, lr)
			switch {
			case errors.Is(err, errLeaseLost):
				w.m.lost.Add(1)
				// lease again
			case err == nil:
				// lease again
			default:
				return err
			}
		}
	}
}

// runShard computes one leased shard, streaming trial lines in batches
// and heartbeating concurrently.
func (w *worker) runShard(ctx context.Context, lr LeaseResponse) error {
	sh := *lr.Shard
	b := -1
	for i, spec := range w.cfg.Specs {
		if spec.Name == sh.Bench {
			b = i
			break
		}
	}
	if b < 0 {
		return fmt.Errorf("dist: leased unknown benchmark %q", sh.Bench)
	}
	g := w.set[b].Golden
	w.m.leases.Add(1)
	if lr.Attempt > 1 {
		w.wc.Logf("lease %s: running %s (attempt %d — previous lease failed)", lr.LeaseID, sh, lr.Attempt)
	} else {
		w.wc.Logf("lease %s: running %s", lr.LeaseID, sh)
	}

	// Heartbeat until the shard is finished or the lease is canceled.
	// The deferred cancel must run before the Wait: the heartbeat loop
	// only exits once shardCtx is done.
	shardCtx, cancel := context.WithCancel(ctx)
	var progress atomic.Int64
	var hbWG sync.WaitGroup
	defer func() { cancel(); hbWG.Wait() }()
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.hb)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
				var hr HeartbeatResponse
				err := w.post(ctx, "/v1/heartbeat",
					HeartbeatRequest{LeaseID: lr.LeaseID, Done: int(progress.Load())}, &hr)
				if err == nil && hr.Cancel {
					w.wc.Logf("lease %s canceled by coordinator", lr.LeaseID)
					cancel()
					return
				}
				// Transport errors are ignored: the coordinator may be
				// restarting; the next beat (or events post) renews.
			}
		}
	}()

	// Streaming posts use a cancel-immune context: a graceful shutdown
	// (ctx canceled) must still be able to flush finished trials and
	// hand the lease back — that is what makes the stop resumable.
	fctx := context.WithoutCancel(ctx)
	var batch []json.RawMessage
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var er EventsResponse
		if err := w.postRetry(fctx, "/v1/events", EventsRequest{LeaseID: lr.LeaseID, Lines: batch}, &er); err != nil {
			return err
		}
		if !er.OK {
			return errLeaseLost
		}
		w.m.flushes.Add(1)
		batch = batch[:0]
		return nil
	}

	for t := sh.Lo; t < sh.Hi; t++ {
		if shardCtx.Err() != nil && ctx.Err() == nil {
			return errLeaseLost
		}
		if err := ctx.Err(); err != nil {
			// Graceful shutdown: flush what we have and hand the lease
			// back so the shard is instantly re-leasable.
			if ferr := flush(); ferr != nil {
				w.wc.Logf("shutdown flush: %v", ferr)
			}
			var rr EventsResponse
			w.post(fctx, "/v1/release", ReleaseRequest{LeaseID: lr.LeaseID}, &rr)
			w.wc.Logf("lease %s released on shutdown at trial %d", lr.LeaseID, t)
			return err
		}
		if w.wc.BeforeTrial != nil {
			if err := w.wc.BeforeTrial(sh.Bench, t); err != nil {
				return fmt.Errorf("dist: worker killed before %s trial %d: %w", sh.Bench, t, err)
			}
		}
		res := w.x.Trial(b, w.cfg.TrialSpec(g, sh.Bench, t))
		if res.Pruned {
			w.m.pruned.Add(1)
		} else {
			s := w.x.Stats()
			w.m.restored.Store(s.RestoredPages)
			w.m.dirty.Store(s.DirtyPages)
			w.m.diff.Store(s.DiffPages)
		}
		w.m.trials.Add(1)
		line, err := campaign.MarshalTrialEvent(sh.Bench, t, res)
		if err != nil {
			return err
		}
		batch = append(batch, json.RawMessage(bytes.TrimRight(line, "\n")))
		progress.Add(1)
		if len(batch) >= w.wc.FlushEvery {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	var cr CompleteResponse
	if err := w.postRetry(fctx, "/v1/complete", CompleteRequest{LeaseID: lr.LeaseID}, &cr); err != nil {
		return err
	}
	if !cr.OK {
		w.wc.Logf("complete rejected for %s: %s", sh, cr.Reason)
		return errLeaseLost
	}
	w.wc.Logf("lease %s: %s complete", lr.LeaseID, sh)
	return nil
}

// --- HTTP plumbing ---------------------------------------------------

// post does one JSON round trip. Non-2xx responses become errors
// carrying the server's error body (join rejections are surfaced via
// the response struct instead, on 403 with a JSON body).
func (w *worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.wc.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *worker) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.wc.URL+path, nil)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

func (w *worker) do(req *http.Request, out any) error {
	resp, err := w.wc.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		json.Unmarshal(data, &e)
		msg := e.Error
		if msg == "" {
			msg = e.Reason
		}
		if msg == "" {
			msg = fmt.Sprintf("%.120s", data)
		}
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: %s", req.Method, req.URL.Path, msg)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is a terminal HTTP failure (4xx/5xx): retry helpers give
// up on it immediately, because the coordinator answered deliberately.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// postRetry retries transport failures (connection refused while a
// coordinator restarts) with a flat short delay for up to ~30s.
func (w *worker) postRetry(ctx context.Context, path string, in, out any) error {
	return w.retry(ctx, func() error { return w.post(ctx, path, in, out) })
}

func (w *worker) getRetry(ctx context.Context, path string, out any) error {
	return w.retry(ctx, func() error { return w.get(ctx, path, out) })
}

func (w *worker) retry(ctx context.Context, f func() error) error {
	var err error
	for i := 0; i < 60; i++ {
		if err = f(); err == nil {
			return nil
		}
		var se *statusError
		if errors.As(err, &se) || ctx.Err() != nil {
			return err
		}
		w.wc.Logf("coordinator unreachable (attempt %d): %v", i+1, err)
		if !sleepCtx(ctx, 500*time.Millisecond) {
			return ctx.Err()
		}
	}
	return err
}

// sleepCtx sleeps, returning false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
