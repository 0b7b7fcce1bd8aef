package campaign

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"flame/internal/core"
)

// TestPlanShards: the plan tiles every (benchmark, trial) pair exactly
// once, in benchmark-major order, with dense deterministic IDs.
func TestPlanShards(t *testing.T) {
	shards := PlanShards([]string{"A", "B"}, 55, 25)
	if len(shards) != 6 {
		t.Fatalf("plan has %d shards, want 6", len(shards))
	}
	seen := map[string]map[int]bool{"A": {}, "B": {}}
	for i, s := range shards {
		if s.ID != i {
			t.Fatalf("shard %d has ID %d", i, s.ID)
		}
		if s.Trials() <= 0 || s.Trials() > 25 {
			t.Fatalf("%s has %d trials", s, s.Trials())
		}
		for tr := s.Lo; tr < s.Hi; tr++ {
			if seen[s.Bench][tr] {
				t.Fatalf("trial %s/%d tiled twice", s.Bench, tr)
			}
			seen[s.Bench][tr] = true
		}
	}
	for b, m := range seen {
		if len(m) != 55 {
			t.Fatalf("bench %s has %d trials tiled, want 55", b, len(m))
		}
	}
	if got := PlanShards([]string{"A"}, 10, 0); len(got) != 1 || got[0].Trials() != 10 {
		t.Fatalf("default shard size: %v", got)
	}
}

// TestShardedRunReplaysByteIdentical is the distribution contract in
// miniature, with no HTTP in the way: running every shard of the plan
// independently — each on its own engine, as a worker process would —
// and assembling the coordinator-style merged stream (set-up lines,
// shard trial lines in arbitrary order) replays into a
// report byte-identical to the single-process campaign.Run report.
func TestShardedRunReplaysByteIdentical(t *testing.T) {
	names := []string{"Triad", "Histogram"}
	cfg := testConfig(t, names, 7, 2)

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// "Coordinator": the set-up lines.
	var merged bytes.Buffer
	set, err := cfg.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSetup(&merged, &cfg, set, 3, len(names)*cfg.Trials); err != nil {
		t.Fatal(err)
	}

	// "Workers": run shards in reverse plan order on fresh executors.
	shards := PlanShards(names, cfg.Trials, 3)
	for i := len(shards) - 1; i >= 0; i-- {
		s := shards[i]
		b := 0
		if s.Bench != names[0] {
			b = 1
		}
		x := cfg.NewExecutor(set)
		for tr := s.Lo; tr < s.Hi; tr++ {
			res := x.Trial(b, cfg.TrialSpec(set[b].Golden, s.Bench, tr))
			line, err := MarshalTrialEvent(s.Bench, tr, res)
			if err != nil {
				t.Fatal(err)
			}
			merged.Write(line)
		}
	}

	replayed, ig, err := ReplayIntegrity(&merged)
	if err != nil {
		t.Fatal(err)
	}
	if !ig.Clean() || ig.Missing != 0 || ig.Duplicates != 0 {
		t.Fatalf("merged stream integrity: %s", ig)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded replay differs from single-process run:\n-single:\n%s\n-sharded:\n%s", want, got)
	}
}

// stopAfterFirstTrial passes the event stream through and closes stop
// once the first trial record is written, so the campaign is stopped
// with trials in flight.
type stopAfterFirstTrial struct {
	bytes.Buffer
	stop chan struct{}
	once sync.Once
}

func (w *stopAfterFirstTrial) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"event":"trial"`)) {
		w.once.Do(func() { close(w.stop) })
	}
	return w.Buffer.Write(p)
}

// TestRunStopPartial: closing Config.Stop winds the campaign down, on
// the uniform grid and in the stratified sampler alike — in-flight
// trials finish, Run returns ErrStopped with a partial report, the
// event stream replays to the same partial report, and missing trials
// are accounted.
func TestRunStopPartial(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"uniform", func() Config { return testConfig(t, []string{"Triad", "Histogram"}, 8, 2) }},
		{"stratified", func() Config { return stratConfig(t, []string{"Triad", "Histogram"}, 8, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := &stopAfterFirstTrial{stop: make(chan struct{})}
			cfg := tc.cfg()
			cfg.Events = stream
			cfg.Stop = stream.stop

			rep, err := Run(cfg)
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("err = %v, want ErrStopped", err)
			}
			if rep == nil {
				t.Fatal("stopped run returned no report")
			}
			if rep.Fleet.Trials == 0 || rep.Fleet.Trials >= 16 {
				t.Fatalf("stopped run ran %d of 16 trials, want some but not all", rep.Fleet.Trials)
			}
			wantMissing := 16 - rep.Fleet.Trials
			if cfg.Stratify {
				// A stratified benchmark expects the trials its bench_done
				// record says it used, so a stop leaves nothing missing.
				wantMissing = 0
				for _, br := range rep.Benchmarks {
					if br.Sampling == nil || br.Sampling.StopReason != "stopped" {
						t.Fatalf("%s: sampling %+v, want stop_reason stopped", br.Benchmark, br.Sampling)
					}
				}
			}
			want, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			replayed, ig, err := ReplayIntegrity(bytes.NewReader(stream.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !ig.Clean() {
				t.Fatalf("stopped stream unhealthy: %s", ig)
			}
			if ig.Missing != wantMissing {
				t.Fatalf("missing = %d, want %d", ig.Missing, wantMissing)
			}
			got, err := replayed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("partial replay differs:\n-live:\n%s\n-replayed:\n%s", want, got)
			}
		})
	}
}

// TestRunSkipResume: a campaign skipping half its grid runs only the
// rest, and the concatenation of both halves' event streams replays to
// the full campaign's report — the single-process resume path.
func TestRunSkipResume(t *testing.T) {
	names := []string{"Triad", "Histogram"}
	full := testConfig(t, names, 6, 2)
	fullRep, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullRep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	first := testConfig(t, names, 6, 2)
	first.Events = &stream
	first.Skip = func(bench string, tr int) bool { return tr >= 3 }
	if rep, err := Run(first); err != nil || rep.Fleet.Trials != 6 {
		t.Fatalf("first half: trials=%d err=%v", rep.Fleet.Trials, err)
	}
	second := testConfig(t, names, 6, 2)
	second.Events = &stream // append to the same stream
	second.Skip = func(bench string, tr int) bool { return tr < 3 }
	if rep, err := Run(second); err != nil || rep.Fleet.Trials != 6 {
		t.Fatalf("second half: trials=%d err=%v", rep.Fleet.Trials, err)
	}

	replayed, ig, err := ReplayIntegrity(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !ig.Clean() || ig.Missing != 0 {
		t.Fatalf("resumed stream integrity: %s", ig)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed replay differs from uninterrupted run:\n-full:\n%s\n-resumed:\n%s", want, got)
	}
}

// TestDoneSetRefusesOtherCampaign: the resume oracle accepts a stream of
// the same campaign run at another worker count, and refuses a stream
// another campaign wrote, naming the first field that differs.
func TestDoneSetRefusesOtherCampaign(t *testing.T) {
	var stream bytes.Buffer
	cfg := testConfig(t, []string{"Triad"}, 4, 2)
	cfg.Opt, cfg.Seed, cfg.Events = core.Options{Scheme: core.Baseline}, 1, &stream
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Events = nil

	same := cfg
	same.Parallel = 1
	if done, err := same.DoneSet(bytes.NewReader(stream.Bytes())); err != nil || len(done["Triad"]) != 4 {
		t.Fatalf("same campaign: %d trials done, err %v", len(done["Triad"]), err)
	}
	for field, mutate := range map[string]func(*Config){
		"scheme":               func(c *Config) { c.Opt, c.Seed = core.FlameOptions(), 2 },
		"seed":                 func(c *Config) { c.Seed = 2 },
		"trials_per_benchmark": func(c *Config) { c.Trials = 12 },
		"extend_regions":       func(c *Config) { c.Opt.ExtendRegions = true },
		"hang_budget_mult":     func(c *Config) { c.HangBudgetMult = 2 },
		"prune":                func(c *Config) { c.Prune = true },
		"trial_timeout_ms":     func(c *Config) { c.TrialTimeout = time.Minute },
		"arch.NumSMs":          func(c *Config) { c.Arch.NumSMs++ },
	} {
		other := cfg
		mutate(&other)
		_, err := other.DoneSet(bytes.NewReader(stream.Bytes()))
		if err == nil || !strings.Contains(err.Error(), field+" is ") {
			t.Errorf("%s changed: err %v, want one naming %s", field, err, field)
		}
	}
}
