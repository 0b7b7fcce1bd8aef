package telemetry

import (
	"encoding/json"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

func tracerTestGolden(t *testing.T, cfg gpu.Config) (*core.KernelSpec, *core.Golden) {
	t.Helper()
	b, err := bench.ByName("Triad")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	scheme, err := core.SchemeByName("flame")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Scheme: scheme, WCDL: 20, ExtendRegions: true}
	g, err := core.GoldenRun(cfg, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return spec, g
}

func runTraced(t *testing.T, cfg gpu.Config, spec *core.KernelSpec, g *core.Golden,
	obsv core.TrialObserver, seed int64) *core.TrialResult {
	t.Helper()
	tr := core.NewEngine(cfg).RunTrial(spec, g, core.TrialSpec{
		Arms:      []int64{100},
		Model:     flame.DataSlice,
		Seed:      seed,
		MaxCycles: g.HangBudget(8),
		Observer:  obsv,
	})
	return tr
}

// TestTracerRecords: an injected trial under the tracer carries a
// propagation record whose fields satisfy the basic invariants — the
// store (if reached) is after the strike, and detection latency is
// non-negative when detection fired.
func TestTracerRecords(t *testing.T) {
	cfg := gpu.GTX480()
	cfg.NumSMs = 2
	spec, g := tracerTestGolden(t, cfg)

	sawStore := false
	for seed := int64(0); seed < 8; seed++ {
		tr := runTraced(t, cfg, spec, g, NewTracer(), seed)
		if tr.Strikes == 0 {
			if tr.Prop != nil {
				t.Fatalf("seed %d: record on a no-strike trial", seed)
			}
			continue
		}
		p := tr.Prop
		if p == nil {
			t.Fatalf("seed %d: injected trial has no propagation record", seed)
		}
		if p.StoreCycle >= 0 {
			sawStore = true
			if p.Depth != p.StoreCycle-p.StrikeCycle || p.Depth < 0 {
				t.Fatalf("seed %d: depth %d inconsistent with strike %d store %d",
					seed, p.Depth, p.StrikeCycle, p.StoreCycle)
			}
		} else if p.Depth != -1 {
			t.Fatalf("seed %d: no store but depth %d", seed, p.Depth)
		}
		if tr.Detections > 0 && p.DetectLatency < 0 {
			t.Fatalf("seed %d: detected trial with latency %d", seed, p.DetectLatency)
		}
	}
	if !sawStore {
		t.Fatal("no seed in 0..7 propagated to a store; invariant checks never ran")
	}
}

// TestTracerReuseMatchesFresh: a tracer reused across trials (the
// campaign worker pattern) must reset completely in BeginTrial — every
// record equals the one a fresh tracer produces for the same trial.
func TestTracerReuseMatchesFresh(t *testing.T) {
	cfg := gpu.GTX480()
	cfg.NumSMs = 2
	spec, g := tracerTestGolden(t, cfg)

	shared := NewTracer()
	for seed := int64(0); seed < 6; seed++ {
		reused := runTraced(t, cfg, spec, g, shared, seed)
		fresh := runTraced(t, cfg, spec, g, NewTracer(), seed)
		a, _ := json.Marshal(reused.Prop)
		b, _ := json.Marshal(fresh.Prop)
		if string(a) != string(b) {
			t.Fatalf("seed %d: reused tracer diverged from fresh:\n%s\n%s", seed, a, b)
		}
	}
}
