package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
	"flame/internal/gpu"
)

// testInfo builds a small campaign description shared by every test:
// two real benchmarks on a 2-SM GTX480 under the full Flame scheme.
func testInfo(trials int) campaign.Identity {
	arch := gpu.GTX480()
	arch.NumSMs = 2
	return campaign.Identity{
		Arch:           arch,
		Scheme:         core.SensorRenaming.FlagName(),
		WCDL:           20,
		ExtendRegions:  true,
		Benchmarks:     []string{"Triad", "Histogram"},
		Trials:         trials,
		Seed:           42,
		Model:          "data",
		HangBudgetMult: 8,
	}
}

// singleReport runs the campaign in-process and returns its report JSON
// — the byte-identical reference every distributed test compares to.
func singleReport(t *testing.T, info campaign.Identity) []byte {
	t.Helper()
	cfg, err := campaignflag.Resolve(info)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 2
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testCoord starts a coordinator with chaos-friendly timings (fast
// lease expiry, short backoff) and an httptest server in front of it.
func testCoord(t *testing.T, info campaign.Identity, dir string) (*Coordinator, *httptest.Server, context.CancelFunc) {
	t.Helper()
	c, err := NewCoordinator(CoordConfig{
		Info: info, StateDir: dir, ShardSize: 3,
		LeaseTTL: 400 * time.Millisecond, QuarantineAfter: 3,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 100 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go c.Run(ctx)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(cancel)
	return c, srv, cancel
}

// waitDone fails the test if the coordinator does not finish in time.
func waitDone(t *testing.T, c *Coordinator, d time.Duration) *FinalReport {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(d):
		t.Fatal("coordinator did not finish in time")
	}
	fr := c.Final()
	if fr == nil {
		t.Fatal("Done closed but Final is nil")
	}
	return fr
}

func checkByteIdentical(t *testing.T, fr *FinalReport, want []byte) {
	t.Helper()
	if !fr.Complete {
		t.Fatalf("campaign not complete: integrity=%s quarantined=%v", fr.Integrity, fr.Quarantined)
	}
	got, err := fr.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged report differs from single-process run:\n-single:\n%s\n-merged:\n%s", want, got)
	}
}

// TestDistByteIdentical: two healthy workers against one coordinator
// produce a merged report byte-identical to the single-process run.
func TestDistByteIdentical(t *testing.T) {
	info := testInfo(7)
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() {
			errs <- RunWorker(context.Background(), WorkerConfig{
				URL: srv.URL, Name: name, FlushEvery: 2, Logf: t.Logf,
			})
		}()
	}
	fr := waitDone(t, c, 60*time.Second)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	checkByteIdentical(t, fr, want)
	if fr.Integrity.Duplicates != 0 || !fr.Integrity.Clean() {
		t.Fatalf("merged integrity: %s", fr.Integrity)
	}
}

// TestDistPruneByteIdentical: a prune-enabled distributed campaign
// (workers classify dead-register strikes without simulating) merges
// byte-identical to the prune-enabled single-process run, pruned_*
// counters included — and with healthy indexes the merged stream
// carries no prune_disabled accounting.
func TestDistPruneByteIdentical(t *testing.T) {
	info := testInfo(7)
	info.Scheme = "baseline"
	info.Prune = true
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "pruner", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	checkByteIdentical(t, fr, want)
	f := fr.Report.Fleet
	if f.PrunedMasked+f.PrunedNoInjection == 0 {
		t.Fatal("distributed campaign pruned nothing; the equivalence check is vacuous")
	}
	for _, br := range fr.Report.Benchmarks {
		if br.PruneDisabled != "" {
			t.Errorf("%s: healthy index reported disabled: %q", br.Benchmark, br.PruneDisabled)
		}
	}
}

// TestDistWorkerDeathReLease: a worker that dies abruptly on its first
// trial (no flush, no release — in-process kill -9) leaves its lease to
// expire; the healthy worker re-leases the shard and the final report
// is still byte-identical.
func TestDistWorkerDeathReLease(t *testing.T) {
	info := testInfo(6)
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	// The victim dies before computing anything.
	err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "victim", Logf: t.Logf,
		BeforeTrial: func(string, int) error { return errors.New("simulated kill") },
	})
	if err == nil || !strings.Contains(err.Error(), "simulated kill") {
		t.Fatalf("victim err = %v", err)
	}

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "survivor", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	checkByteIdentical(t, fr, want)

	c.mu.Lock()
	released := 0
	for _, sc := range c.shards {
		released += sc.fails
	}
	c.mu.Unlock()
	if released == 0 {
		t.Fatal("no shard recorded a failed lease — the victim's death went unnoticed")
	}
}

// TestDistCoordinatorRestartResume: the coordinator is killed
// mid-campaign (after a worker streamed part of a shard and died); a
// new coordinator on the same state dir resumes from checkpoint + shard
// streams and a fresh worker finishes the campaign byte-identically.
func TestDistCoordinatorRestartResume(t *testing.T) {
	info := testInfo(6)
	want := singleReport(t, info)
	dir := t.TempDir()

	c1, srv1, cancel1 := testCoord(t, info, dir)
	// This worker streams five trials (flushed every 1) then dies.
	var n atomic.Int64
	err := RunWorker(context.Background(), WorkerConfig{
		URL: srv1.URL, Name: "mayfly", FlushEvery: 1, Logf: t.Logf,
		BeforeTrial: func(string, int) error {
			if n.Add(1) > 5 {
				return errors.New("simulated kill")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("mayfly survived")
	}
	before := readLive(t, srv1.URL)
	// Kill the coordinator. Its state dir keeps the checkpoint and the
	// partial shard streams.
	cancel1()
	srv1.Close()
	if c1.Final() != nil {
		t.Fatal("first coordinator finished prematurely")
	}

	c2, srv2, _ := testCoord(t, info, dir)
	if c2.epoch != c1.epoch+1 {
		t.Fatalf("epoch = %d, want %d", c2.epoch, c1.epoch+1)
	}
	c2.mu.Lock()
	resumed := 0
	for _, sc := range c2.shards {
		resumed += len(sc.seen)
	}
	c2.mu.Unlock()
	if resumed == 0 {
		t.Fatal("restarted coordinator found no persisted trials to resume from")
	}
	if after := readLive(t, srv2.URL); !reflect.DeepEqual(after, before) {
		t.Fatalf("resumed coordinator serves a different live view:\n before %+v\n after  %+v", before, after)
	}

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv2.URL, Name: "finisher", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("finisher: %v", err)
	}
	fr := waitDone(t, c2, 60*time.Second)
	checkByteIdentical(t, fr, want)
	checkLiveMatchesFinal(t, srv2.URL, fr)
}

// TestDistRejectsUnknownOutcome: a trial line whose outcome does not
// parse is dropped at the coordinator. It is not persisted or counted,
// and its trial is not marked seen, so the shard's completion is refused
// as short and the trial is leased again; the campaign still merges
// Complete and byte-identical to the single-process run.
func TestDistRejectsUnknownOutcome(t *testing.T) {
	info := testInfo(6)
	cfg, err := campaignflag.Resolve(info)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 2
	var stream bytes.Buffer
	cfg.Events = &stream
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	c, srv, _ := testCoord(t, info, t.TempDir())

	// A hand-driven worker leases a shard and streams its real trial
	// lines, the middle one with a forged outcome.
	w := &worker{wc: WorkerConfig{URL: srv.URL, Client: http.DefaultClient}}
	ctx := context.Background()
	var jr JoinResponse
	if err := w.post(ctx, "/v1/join", JoinRequest{Worker: "forger", Goldens: c.sigs}, &jr); err != nil || !jr.OK {
		t.Fatalf("join: %v %+v", err, jr)
	}
	var lr LeaseResponse
	if err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: "forger"}, &lr); err != nil || lr.Shard == nil {
		t.Fatalf("lease: %v %+v", err, lr)
	}
	sh := *lr.Shard
	var lines []json.RawMessage
	for _, line := range bytes.Split(stream.Bytes(), []byte("\n")) {
		bench, tr, r, err := campaign.DecodeTrial(line)
		if err != nil || bench != sh.Bench || tr < sh.Lo || tr >= sh.Hi {
			continue
		}
		if tr == sh.Lo+1 {
			line = bytes.Replace(line, []byte(`"outcome":"`+r.Outcome.String()+`"`), []byte(`"outcome":"bogus"`), 1)
		}
		lines = append(lines, line)
	}
	if len(lines) != sh.Trials() {
		t.Fatalf("found %d trial lines for %s", len(lines), sh)
	}
	var er EventsResponse
	if err := w.post(ctx, "/v1/events", EventsRequest{LeaseID: lr.LeaseID, Lines: lines}, &er); err != nil || !er.OK {
		t.Fatalf("events: %v %+v", err, er)
	}
	var cr CompleteResponse
	if err := w.post(ctx, "/v1/complete", CompleteRequest{LeaseID: lr.LeaseID}, &cr); err != nil {
		t.Fatal(err)
	}
	if short := fmt.Sprintf("%s: %d/%d trials persisted", sh, sh.Trials()-1, sh.Trials()); cr.OK || cr.Reason != short {
		t.Fatalf("complete = %+v, want refused as %q", cr, short)
	}

	if err := RunWorker(ctx, WorkerConfig{URL: srv.URL, Name: "honest", FlushEvery: 2, Logf: t.Logf}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	checkByteIdentical(t, fr, want)
	if !fr.Integrity.Clean() || fr.Integrity.Duplicates != 0 {
		t.Fatalf("merged integrity: %s", fr.Integrity)
	}
}

// TestDistPoisonShardQuarantine: a shard whose trials always kill their
// worker is quarantined after QuarantineAfter failed leases, and the
// campaign finishes degraded — a partial report with the missing trials
// accounted explicitly, instead of wedging forever.
func TestDistPoisonShardQuarantine(t *testing.T) {
	info := testInfo(6)
	c, srv, _ := testCoord(t, info, t.TempDir())

	poison := func(bench string, trial int) error {
		if bench == "Triad" && trial < 3 { // shard 0's range
			return errors.New("poison trial")
		}
		return nil
	}
	// The worker dies every time it touches shard 0; restart it until
	// the coordinator quarantines the shard and drains the rest.
	for i := 0; i < 12; i++ {
		err := RunWorker(context.Background(), WorkerConfig{
			URL: srv.URL, Name: fmt.Sprintf("kamikaze-%d", i), Logf: t.Logf,
			BeforeTrial: poison, FlushEvery: 2,
		})
		if err == nil {
			break // lease loop saw Done: the campaign reached a terminal state
		}
		if !strings.Contains(err.Error(), "poison trial") {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	fr := waitDone(t, c, 60*time.Second)
	if fr.Complete {
		t.Fatal("campaign claims complete despite a poison shard")
	}
	if len(fr.Quarantined) != 1 || fr.Quarantined[0].ID != 0 {
		t.Fatalf("quarantined = %v, want exactly shard 0", fr.Quarantined)
	}
	if fr.Integrity.Missing != 3 || fr.Integrity.MissingByBench["Triad"] != 3 {
		t.Fatalf("missing accounting: %s", fr.Integrity)
	}
	if got, want := fr.Report.Fleet.Trials, 2*6-3; got != want {
		t.Fatalf("degraded report folded %d trials, want %d", got, want)
	}
}

// TestDistCorruptWorkerRejected: a worker whose golden replica hashes
// disagree with the coordinator's is rejected at join (teaMPI-style
// vote) and never leases; a healthy worker still completes the campaign.
func TestDistCorruptWorkerRejected(t *testing.T) {
	info := testInfo(4)
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "corrupt", CorruptGolden: true, Logf: t.Logf,
	})
	if err == nil || !strings.Contains(err.Error(), "golden vote failed") {
		t.Fatalf("corrupt worker err = %v, want golden vote rejection", err)
	}
	c.mu.Lock()
	reason := c.workers["corrupt"]
	c.mu.Unlock()
	if reason == "" {
		t.Fatal("corrupt worker was not banned")
	}

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "healthy", Logf: t.Logf,
	}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	checkByteIdentical(t, waitDone(t, c, 60*time.Second), want)
}

// TestDistGracefulShutdownResume: canceling a worker's context mid-
// shard flushes the finished trials, releases the lease without a
// failure strike, and a later worker resumes to a byte-identical report.
func TestDistGracefulShutdownResume(t *testing.T) {
	info := testInfo(6)
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	err := RunWorker(ctx, WorkerConfig{
		URL: srv.URL, Name: "retiree", FlushEvery: 1, Logf: t.Logf,
		BeforeTrial: func(string, int) error {
			if n.Add(1) == 4 {
				cancel() // SIGTERM arrives; trial 4 still finishes
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("retiree err = %v, want context.Canceled", err)
	}

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "successor", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("successor: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	checkByteIdentical(t, fr, want)

	c.mu.Lock()
	fails := 0
	for _, sc := range c.shards {
		fails += sc.fails
	}
	c.mu.Unlock()
	if fails != 0 {
		t.Fatalf("graceful release still cost %d failure strikes", fails)
	}
}

// TestDistEarlyStopCancelsShards: a campaign with a loose ci_target
// converges long before the trial budget; the coordinator cancels the
// converged benchmarks' pending shards, the final report is Complete
// with the skipped trials accounted as exactly the cancelled ranges,
// and a coordinator restarted on the state dir reaches the same
// terminal state without re-leasing anything.
func TestDistEarlyStopCancelsShards(t *testing.T) {
	info := testInfo(24)
	info.CITarget = 0.3
	dir := t.TempDir()
	c, srv, cancel := testCoord(t, info, dir)

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "solo", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	fr := waitDone(t, c, 120*time.Second)
	if !fr.Complete {
		t.Fatalf("early-stopped campaign not complete: integrity=%s", fr.Integrity)
	}
	if len(fr.EarlyStopped) == 0 {
		t.Fatalf("ci_target %.2f never converged: %+v", info.CITarget, fr.Integrity)
	}
	if len(fr.Cancelled) == 0 {
		t.Fatal("converged campaign cancelled no shards")
	}
	skipped := 0
	for _, sh := range fr.Cancelled {
		skipped += sh.Trials()
	}
	if fr.Integrity.Missing != skipped {
		t.Fatalf("missing %d != cancelled trials %d", fr.Integrity.Missing, skipped)
	}
	if got, want := fr.Report.Fleet.Trials, 2*24-skipped; got != want {
		t.Fatalf("report folded %d trials, want %d", got, want)
	}
	cancel()
	srv.Close()

	// Restart on the same state dir: the cancelled shards must be
	// restored (not re-leased) and the campaign finalizes immediately.
	c2, _, _ := testCoord(t, info, dir)
	fr2 := waitDone(t, c2, 10*time.Second)
	if !fr2.Complete || len(fr2.Cancelled) != len(fr.Cancelled) {
		t.Fatalf("resume lost cancellation: complete=%v cancelled=%v", fr2.Complete, fr2.Cancelled)
	}
}

// TestDistStateDirMismatch: resuming a state dir that belongs to a
// different campaign is refused instead of merging garbage.
func TestDistStateDirMismatch(t *testing.T) {
	dir := t.TempDir()
	info := testInfo(4)
	_, srv, cancel := testCoord(t, info, dir)
	cancel()
	srv.Close()

	other := testInfo(5) // different trial count: a different campaign
	_, err := NewCoordinator(CoordConfig{Info: other, StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "different campaign") ||
		!strings.Contains(err.Error(), "trials_per_benchmark is 4 in the checkpoint, 5 in this run") {
		t.Fatalf("err = %v, want state-dir mismatch naming trials_per_benchmark", err)
	}
}

// TestDistSetupConcurrent prepares the coordinator's and a worker's
// golden runs and prune indexes on four set-up workers over several
// benchmarks, a multi-kernel one among them. Under -race this checks
// the set-up fan-out shares nothing unsynchronised; the merged report
// must still equal the single-process run.
func TestDistSetupConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	info := testInfo(3)
	info.Benchmarks = []string{"Triad", "SRAD", "Histogram", "BFS", "NW"}
	info.Prune = true
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())
	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "w0", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	checkByteIdentical(t, waitDone(t, c, 60*time.Second), want)
}
