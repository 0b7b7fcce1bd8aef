package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"flame/internal/campaign"
)

func toyOptions(t *testing.T, workload string, traced bool) *options {
	return &options{
		workload: workload, seed: 1, budget: time.Millisecond, traced: traced,
		scale: toyScale, outDir: t.TempDir(), log: io.Discard,
	}
}

// Every workload runs at toy size, passes its invariant checks
// and emits every metric its mode promises.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"grid", "campaign", "sampled", "fleet"} {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(toyOptions(t, w, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				units := endToEndUnits
				if traced {
					units = perLayerUnits
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(units))
				}
				for _, u := range units {
					m, ok := res.Metrics[u.name]
					if !ok || m.Unit != u.unit {
						t.Errorf("metric %s: got %+v", u.name, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", u.name, m.Value)
					}
				}
				if traced && res.Metrics["trace.span_coverage"].Value < 0.9 {
					t.Errorf("span coverage %v < 0.9", res.Metrics["trace.span_coverage"].Value)
				}
			})
		}
	}
}

// A deliberately wrong pin fails the run.
func TestWrongPinFails(t *testing.T) {
	wrong := &pins{
		seed: 1, campaign: "0", sampled: "0", gridStats: "0",
		gridGeomeans: []string{"1", "1", "1", "1", "1", "1", "1", "1"},
	}
	for _, w := range []string{"grid", "campaign", "sampled", "fleet"} {
		o := toyOptions(t, w, false)
		o.pins = wrong
		var log strings.Builder
		o.log = &log
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || !strings.Contains(log.String(), "pinned") {
			t.Errorf("%s: wrong pin passed (correct=%v)\n%s", w, res.Correct, log.String())
		}
	}
}

func TestSpanAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(0, "campaign.run", 0, at(0), at(100))
	tr.add(root, "core.golden", 0, at(0), at(20))
	tr.add(root, "core.trial", 1, at(20), at(70))
	tr.add(root, "core.trial", 2, at(30), at(80))
	if got := tr.coverage(root); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
	if got := tr.selfTime(&tr.spans[root-1]); got != 20*time.Millisecond {
		t.Errorf("root self time = %v, want 20ms", got)
	}
	if got := tr.sum("core.trial"); got != 100*time.Millisecond {
		t.Errorf("trial sum = %v, want 100ms", got)
	}
}

// Campaign spans lie between event lines; time no pair of lines
// brackets is not covered.
func TestCampaignSpansLeaveUnbracketedTimeUncovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &campRun{
		start: at(0), end: at(100),
		goldensDone: at(10), setupLinesDone: at(15), aggregated: at(90),
		trials: []trialRec{{start: at(20), end: at(50)}, {start: at(25), end: at(60)}, {start: at(55), end: at(80)}},
	}
	tr := &tracer{}
	root := r.spans(tr, campaign.Config{Parallel: 2, Prune: true})
	// Uncovered: 10-15 (set-up line writes) and 90-100 (return).
	if got := tr.coverage(root); math.Abs(got-0.85) > 1e-9 {
		t.Errorf("coverage = %v, want 0.85", got)
	}
}

// A fleet whose worker log lines no longer pair up is an error, not a
// panic or a ledger of empty shards.
func TestFleetSpansRejectUnmatchedLogLines(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	noPrune := func(string, int) bool { return false }
	cases := map[string][]fleetEvent{
		"no running line":    {{at: at(1), kind: "joined"}, {at: at(2), kind: "trial"}, {at: at(3), kind: "shard_end"}},
		"no complete line":   {{at: at(1), kind: "joined"}, {at: at(2), kind: "shard_start"}, {at: at(3), kind: "trial"}},
		"no joined line":     {{at: at(2), kind: "shard_start"}, {at: at(3), kind: "trial"}, {at: at(4), kind: "shard_end"}},
		"no BeforeTrial":     {{at: at(1), kind: "joined"}},
		"lease never closed": {{at: at(1), kind: "joined"}, {at: at(2), kind: "shard_start"}, {at: at(3), kind: "trial"}, {at: at(4), kind: "shard_start"}},
	}
	for name, events := range cases {
		r := &fleetRun{start: at(0), coordReady: at(1), final: at(10),
			workers: []workerTimeline{{start: at(0), events: events}}}
		if _, _, err := r.spans(&tracer{}, noPrune); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	ok := &fleetRun{start: at(0), coordReady: at(1), final: at(10), workers: []workerTimeline{{start: at(1), events: []fleetEvent{
		{at: at(2), kind: "joined"}, {at: at(3), kind: "shard_start"}, {at: at(4), kind: "trial"},
		{at: at(6), kind: "trial"}, {at: at(8), kind: "shard_end"}}}}}
	_, trials, err := ok.spans(&tracer{}, noPrune)
	if err != nil || len(trials) != 2 {
		t.Errorf("well-formed fleet: %d trials, err %v", len(trials), err)
	}
}

// A repetition on a host at half the nominal speed reports half its
// times and twice its rates.
func TestEndToEndScalesByHostSpeed(t *testing.T) {
	r := rep{wall: 4 * time.Second, setup: time.Second, ops: 30, simCycles: 300, peakMB: 7, speed: 0.5}
	got := endToEnd([]rep{r}, []float64{0.5, 0.5})
	want := map[string]float64{"wall_s": 2, "setup_s": 0.5, "trials_per_s": 20, "simcycles_per_s": 200, "peak_mem_mb": 7}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantileMatchesInterpolation(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
}
