package telemetry_test

import (
	"bytes"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/telemetry"
)

// everyPC is an observer whose BeforeIssue always permits issue and
// declares no IssueAt. Combined after the Flame controller's hooks, it
// widens the union to every instruction, so the controller's
// BeforeIssue runs for every hazard-clear warp, as if its own IssueAt
// were nil.
func everyPC() *gpu.Hooks {
	return &gpu.Hooks{BeforeIssue: func(*gpu.Device, *gpu.SM, *gpu.Warp) bool { return true }}
}

// TestIssueAtEquivalence checks the Flame controller's IssueAt
// declaration against calling its BeforeIssue at every instruction:
// every benchmark at 4 SMs, alone and with a telemetry collector
// attached, must give identical simulator statistics, Flame statistics
// and per-SM and per-warp slot attribution.
func TestIssueAtEquivalence(t *testing.T) {
	cfg := testArch()
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			declared := runBench(t, cfg, b.Name, core.FlameOptions(), nil)
			every := runBench(t, cfg, b.Name, core.FlameOptions(), everyPC())
			if declared.Stats != every.Stats || declared.Flame != every.Flame {
				t.Fatalf("declared IssueAt: %+v %+v\nevery PC: %+v %+v",
					declared.Stats, declared.Flame, every.Stats, every.Flame)
			}
			slots := func(extra *gpu.Hooks) (*core.Result, string) {
				col := telemetry.NewCollector(&cfg)
				res := runBench(t, cfg, b.Name, core.FlameOptions(), gpu.CombineHooks(col.Hooks(), extra))
				var csv bytes.Buffer
				if err := col.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if err := col.WriteWarpCSV(&csv); err != nil {
					t.Fatal(err)
				}
				return res, csv.String()
			}
			resD, slotsD := slots(nil)
			resE, slotsE := slots(everyPC())
			if resD.Stats != declared.Stats || resE.Stats != declared.Stats ||
				resD.Flame != declared.Flame || resE.Flame != declared.Flame {
				t.Fatalf("a collector changed the run: %+v / %+v, want %+v", resD.Stats, resE.Stats, declared.Stats)
			}
			if slotsD != slotsE {
				t.Fatalf("slot attribution differs:\ndeclared IssueAt:\n%s\nevery PC:\n%s", slotsD, slotsE)
			}
		})
	}
}
