package core

import (
	"testing"
)

// benchTrial measures one end-to-end injection trial — strike, full
// simulation under the Flame scheme, golden diff, classification —
// using run(i) as the trial executor.
func benchTrial(b *testing.B, run func(g *Golden, ts TrialSpec) *TrialResult) {
	b.Helper()
	cfg := testCfg()
	g, err := GoldenRun(cfg, saxpySpecCached, FlameOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := TrialSpec{
			Arms:      []int64{(int64(i) * g.Window) / 97 % g.Window},
			Seed:      int64(i)*2654435761 + 17,
			MaxCycles: g.HangBudget(0),
		}
		if res := run(g, ts); res == nil {
			b.Fatal("nil trial result")
		}
	}
}

// BenchmarkCampaignTrial is what a campaign worker does per trial: an
// injection trial on a pooled Engine (device reuse, golden-snapshot
// memory restore, shared compilation). allocs/op here is the
// allocs/trial figure EXPERIMENTS.md tracks.
func BenchmarkCampaignTrial(b *testing.B) {
	var eng *Engine
	benchTrial(b, func(g *Golden, ts TrialSpec) *TrialResult {
		if eng == nil {
			eng = NewEngine(testCfg())
		}
		return eng.RunTrial(saxpySpecCached, g, ts)
	})
}

// BenchmarkCampaignTrialFresh is the same trial without pooling: a
// fresh device, full memory image and full diff per trial (freshTrial).
// Kept as the before/after reference.
func BenchmarkCampaignTrialFresh(b *testing.B) {
	benchTrial(b, func(g *Golden, ts TrialSpec) *TrialResult {
		return freshTrial(testCfg(), saxpySpecCached, g, ts)
	})
}

// saxpySpecCached keeps one spec pointer across benchmark iterations so
// the Engine's per-spec device cache actually hits, as it does for a
// campaign worker holding the campaign's spec slice.
var saxpySpecCached = saxpySpec()
