package core_test

import (
	"reflect"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/telemetry"
)

// TestResumedTracedTrialsMatchFromZero extends the cursor contract to
// traced trials on real benchmarks: with the propagation tracer
// attached, trials on a pooled engine that start from its golden cursor
// equal, Prop record included, the same trials run from cycle 0 on a
// fresh engine. Histogram's atomics leave undo-log entries in the
// cursor's Flame controller and SRAD adds a follow-on launch; arms fall
// across the arm span and reach the engine out of order, so its cursor
// both moves forward and restarts.
func TestResumedTracedTrialsMatchFromZero(t *testing.T) {
	cfg := gpu.GTX480()
	cfg.NumSMs = 4
	names := []string{"Histogram", "SRAD", "LUD"}
	if raceBuild {
		names = names[:1]
	}
	traced, resumed := 0, 0
	for _, name := range names {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec()
		for _, run := range []struct {
			opt   core.Options
			model flame.FaultModel
		}{{core.FlameOptions(), flame.DataSlice}, {core.Options{Scheme: core.Baseline}, flame.FullSite}} {
			g, err := core.GoldenRun(cfg, spec, run.opt)
			if err != nil {
				t.Fatal(err)
			}
			var arms []int64
			for i := int64(0); i < 16; i++ {
				arms = append(arms, (i*7%16)*g.ArmSpan()/16)
			}
			pooled, fresh := core.NewEngine(cfg), core.NewEngine(cfg).FromCycleZero()
			trA, trB := telemetry.NewTracer(), telemetry.NewTracer()
			for i, arm := range arms {
				ts := core.TrialSpec{Arms: []int64{arm}, Model: run.model, Seed: int64(i) + 5, MaxCycles: g.HangBudget(0)}
				ts.Observer = trA
				got := pooled.RunTrial(spec, g, ts)
				ts.Observer = trB
				want := fresh.RunTrial(spec, g, ts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s arm %d: cursor-started trial differs:\n got  %+v\nwant %+v",
						name, run.opt.Scheme.FlagName(), arm, got, want)
				}
				if arm > 0 {
					resumed++
					if got.Prop != nil {
						traced++
					}
				}
			}
		}
	}
	if traced == 0 {
		t.Errorf("%d resumed trials, none with a propagation record", resumed)
	}
}
