package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
)

// TestWriteJSONContentTypeAndEncodeErrors: every writeJSON response
// carries the JSON Content-Type, and an encode failure is logged
// instead of dropped (the status line is already out, so logging is the
// only trace left).
func TestWriteJSONContentTypeAndEncodeErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]int{"a": 1})
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", got)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != `{"a":1}` {
		t.Fatalf("body = %q", got)
	}

	var mu sync.Mutex
	var logged []string
	orig := writeJSONLogf
	writeJSONLogf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	defer func() { writeJSONLogf = orig }()

	// A channel is not marshalable: Encode fails after the header went
	// out, and the failure must reach the log.
	writeJSON(httptest.NewRecorder(), http.StatusOK, make(chan int))
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "unsupported type") {
		t.Fatalf("encode failure not logged: %q", logged)
	}
}

// metricsTestCoordinator builds a coordinator with no golden runs and
// no HTTP. Its trial counts come from a fixed list of trial results
// folded through foldLine, the entry point handleEvents uses, so the
// rendered page is a pure function of those results and can be pinned
// byte-for-byte.
func metricsTestCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	info := testInfo(6)
	info.Trace = true
	cfg, err := campaignflag.Resolve(info)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{
		cc:       CoordConfig{Info: info},
		cfg:      cfg,
		epoch:    2,
		leaseSeq: 7,
		leases:   map[string]*shardCtl{},
		workers:  map[string]string{"w0": "", "w1": "", "evil": "golden vote failed"},
		live:     map[string]*campaign.BenchReport{},
		stopped:  map[string]bool{"Histogram": true},
	}
	for _, sp := range cfg.Specs {
		c.live[sp.Name] = &campaign.BenchReport{Benchmark: sp.Name}
	}
	c.live["Triad"].PruneDisabled = "schedule overflow"
	mkShard := func(id, lo, hi int, bench, state string, fails int) *shardCtl {
		sc := &shardCtl{state: state, fails: fails, seen: map[int]bool{}}
		sc.shard.ID, sc.shard.Lo, sc.shard.Hi, sc.shard.Bench = id, lo, hi, bench
		return sc
	}
	c.shards = []*shardCtl{
		mkShard(0, 0, 3, "Triad", stateDone, 0),
		mkShard(1, 3, 6, "Triad", stateLeased, 1),
		mkShard(2, 0, 3, "Histogram", stateDone, 0),
		mkShard(3, 3, 6, "Histogram", stateCancelled, 0),
	}
	c.leases["e2-l7-s1"] = c.shards[1]

	// prop builds a traced trial's record; depth < 0 means the strike
	// never reached a store.
	prop := func(depth int64, fp string) *core.PropRecord {
		store := int64(-1)
		if depth >= 0 {
			store = 1 + depth
		}
		return &core.PropRecord{StrikeCycle: 1, StoreCycle: store, Depth: depth, DetectLatency: -1, Fingerprint: fp}
	}
	for _, tr := range []struct {
		shard, trial int
		r            core.TrialResult
	}{
		{0, 0, core.TrialResult{Outcome: core.OutcomeMasked, Prop: prop(0, "")}},
		{0, 1, core.TrialResult{Outcome: core.OutcomeSDC, Prop: prop(3, "00000000deadbeef")}},
		{0, 2, core.TrialResult{Outcome: core.OutcomeSDC, Prop: prop(9, "00000000deadbeef")}},
		{1, 3, core.TrialResult{Outcome: core.OutcomeSDC, Prop: prop(40, "0123456789abcdef")}},
		{1, 4, core.TrialResult{Outcome: core.OutcomeDUE, Prop: prop(-1, "")}},
		{2, 0, core.TrialResult{Outcome: core.OutcomeMasked, Prop: prop(-1, "")}},
		{2, 1, core.TrialResult{Outcome: core.OutcomeMasked, Prop: prop(-1, "")}},
		{2, 2, core.TrialResult{Outcome: core.OutcomeNoInjection}},
	} {
		sc := c.shards[tr.shard]
		line, err := campaign.MarshalTrialEvent(sc.shard.Bench, tr.trial, &tr.r)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err := c.foldLine(sc, line); !fresh || err != nil {
			t.Fatalf("foldLine(%s, %d) = %v, %v", sc.shard, tr.trial, fresh, err)
		}
	}
	return c
}

// TestMetricsGolden pins the exact Prometheus exposition bytes the
// coordinator serves, so accidental format drift (label order, HELP
// text, histogram bucketing) is caught. Regenerate with
// UPDATE_METRICS_GOLDEN=1 go test ./internal/dist -run TestMetricsGolden
func TestMetricsGolden(t *testing.T) {
	c := metricsTestCoordinator(t)
	got := c.renderMetricsLocked(12.5)

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_METRICS_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_METRICS_GOLDEN=1)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("metrics page drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestStatusAndMetricsUnderLoad hammers the read-only endpoints while a
// worker streams a real campaign — the race detector turns any unlocked
// read in the handlers into a failure, and the final merged report must
// still be byte-identical.
func TestStatusAndMetricsUnderLoad(t *testing.T) {
	info := testInfo(6)
	want := singleReport(t, info)
	c, srv, _ := testCoord(t, info, t.TempDir())

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		path := "/v1/status"
		if i%2 == 1 {
			path = "/metrics"
		}
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue // server may be mid-shutdown at test end
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "loaded", FlushEvery: 1, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	close(stop)
	readers.Wait()
	checkByteIdentical(t, fr, want)
	checkLiveMatchesFinal(t, srv.URL, fr)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"flame_campaign_trials_done_total 12",
		`flame_shards{state="done"}`,
		"flame_leases_granted_total",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// liveView is the coordinator's live outcome counts: the /v1/status
// tallies and coverage interval and the per-benchmark
// flame_bench_{injected,sdc,due}_total samples of /metrics, keyed by
// their series name.
type liveView struct {
	Tallies                          map[string]int
	Coverage, CoverageLo, CoverageHi float64
	Bench                            map[string]float64
}

// readLive fetches the live view from a coordinator.
func readLive(t *testing.T, url string) liveView {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	v := liveView{Tallies: st.Tallies, Coverage: st.Coverage,
		CoverageLo: st.CoverageLo, CoverageHi: st.CoverageHi, Bench: map[string]float64{}}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(page), "\n") {
		for _, fam := range []string{"flame_bench_injected_total{", "flame_bench_sdc_total{", "flame_bench_due_total{"} {
			if series, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(line, fam) {
				n, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("metrics line %q: %v", line, err)
				}
				v.Bench[series] = n
			}
		}
	}
	return v
}

// checkLiveMatchesFinal asserts that the coordinator at url serves live
// counts equal to the merged report's: the fleet tallies and coverage
// interval on /v1/status and each benchmark's injected/SDC/DUE counts
// on /metrics.
func checkLiveMatchesFinal(t *testing.T, url string, fr *FinalReport) {
	t.Helper()
	f := &fr.Report.Fleet
	want := liveView{
		Tallies:  map[string]int{},
		Coverage: f.Coverage, CoverageLo: f.CoverageLo, CoverageHi: f.CoverageHi,
		Bench: map[string]float64{},
	}
	for o, n := range map[string]int{
		"no-injection": f.NoInjection, "masked": f.Masked, "recovered": f.Recovered,
		"sdc": f.SDC, "due": f.DUE, "hang": f.Hang, "internal": f.Internal,
	} {
		if n > 0 {
			want.Tallies[o] = n
		}
	}
	for _, br := range fr.Report.Benchmarks {
		label := fmt.Sprintf("{bench=%q}", br.Benchmark)
		want.Bench["flame_bench_injected_total"+label] = float64(br.Injected)
		want.Bench["flame_bench_sdc_total"+label] = float64(br.SDC)
		want.Bench["flame_bench_due_total"+label] = float64(br.DUE)
	}
	if got := readLive(t, url); !reflect.DeepEqual(got, want) {
		t.Fatalf("live view differs from the merged report:\n got  %+v\n want %+v", got, want)
	}
}

// TestDistTracedByteIdentical: a traced distributed campaign (baseline
// scheme, full-site model, so SDCs occur and carry fingerprints) merges
// byte-identical to the traced single-process run, and the
// coordinator's /metrics carries the propagation tallies — including
// after a coordinator restart, which must rebuild them from the shard
// streams without losing counts.
func TestDistTracedByteIdentical(t *testing.T) {
	info := testInfo(6)
	info.Scheme = "baseline"
	info.Model = "full"
	info.Trace = true
	want := singleReport(t, info)
	dir := t.TempDir()
	c, srv, cancel := testCoord(t, info, dir)

	if err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "tracer", FlushEvery: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	fr := waitDone(t, c, 60*time.Second)
	checkByteIdentical(t, fr, want)
	if fr.Report.Fleet.Propagation == nil || fr.Report.Fleet.Propagation.Traced == 0 {
		t.Fatal("merged traced report has no propagation section")
	}

	readCounters := func(url string) (traced float64, page string) {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		page = string(data)
		for _, line := range strings.Split(page, "\n") {
			if strings.HasPrefix(line, "flame_propagation_traced_total ") {
				fmt.Sscanf(line, "flame_propagation_traced_total %g", &traced)
			}
		}
		return traced, page
	}
	traced1, page := readCounters(srv.URL)
	if traced1 == 0 {
		t.Fatalf("live metrics carry no propagation tally:\n%s", page)
	}
	if !strings.Contains(page, "flame_propagation_cycles_bucket") {
		t.Fatalf("metrics missing propagation depth histogram:\n%s", page)
	}
	cancel()
	srv.Close()

	// Restart on the same state dir: the tallies must be rebuilt from
	// the shard streams, not reset.
	c2, srv2, _ := testCoord(t, info, dir)
	waitDone(t, c2, 10*time.Second)
	traced2, page2 := readCounters(srv2.URL)
	if traced2 != traced1 {
		t.Fatalf("propagation tally not monotone across restart: %v -> %v\n%s", traced1, traced2, page2)
	}
}

// TestDashboardServed: the coordinator serves a self-contained HTML
// dashboard that references the two endpoints it polls.
func TestDashboardServed(t *testing.T) {
	info := testInfo(3)
	c, err := NewCoordinator(CoordConfig{
		Info: info, StateDir: t.TempDir(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{"/v1/status", "/metrics", "<html"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

}
