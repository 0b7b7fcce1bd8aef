package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/telemetry"
)

// schedSink records slot credits per (SM, scheduler, reason), the
// resolution the Collector folds away.
type schedSink map[[3]int]int64

func (s schedSink) CreditSlot(smID, sched, warp int, r gpu.SlotReason, cycle int64) {
	s[[3]int{smID, sched, int(r)}]++
}

func (s schedSink) dump(cfg *gpu.Config) string {
	var b strings.Builder
	b.WriteString("sm,sched")
	for r := gpu.SlotReason(0); r < gpu.NumSlotReasons; r++ {
		b.WriteString("," + r.String())
	}
	b.WriteByte('\n')
	for sm := 0; sm < cfg.NumSMs; sm++ {
		for si := 0; si < cfg.SchedulersPerSM; si++ {
			fmt.Fprintf(&b, "%d,%d", sm, si)
			for r := 0; r < int(gpu.NumSlotReasons); r++ {
				fmt.Fprintf(&b, ",%d", s[[3]int{sm, si, r}])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// telemetryDump runs one benchmark with flamesim -telemetry's observer
// stack (collector, Perfetto writer, interval sampler) plus a
// per-scheduler sink, and renders everything they recorded: the
// per-scheduler and per-warp attribution in full, the Perfetto trace and
// interval series as SHA-256 digests.
func telemetryDump(t *testing.T, cfg gpu.Config, name string, opt core.Options, every int64) string {
	t.Helper()
	sched := schedSink{}
	col := telemetry.NewCollector(&cfg)
	tw := telemetry.NewTraceWriter()
	smp := telemetry.NewSampler(every)
	smp.Collector = col
	hooks := gpu.CombineHooks(col.Hooks(), tw.Hooks())
	hooks = gpu.CombineHooks(hooks, smp.Hooks())
	hooks = gpu.CombineHooks(hooks, &gpu.Hooks{Slots: sched})
	runBench(t, cfg, name, opt, hooks)

	var warps, trace, series bytes.Buffer
	if err := col.WriteWarpCSV(&warps); err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(&trace); err != nil {
		t.Fatal(err)
	}
	if err := smp.WriteCSV(&series); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s%sperfetto sha256=%s events=%d\nintervals sha256=%s\n",
		sched.dump(&cfg), warps.String(), sha(trace.Bytes()), tw.Events(), sha(series.Bytes()))
}

// TestTelemetryPinned compares scheduler-slot attribution, Perfetto
// traces and interval series against recordings of the simulator, for
// benchmarks that stress each stall class: Triad (scoreboard), LUD
// (barriers) and SRAD, each under Baseline and Flame (RBQ suspensions
// and BeforeIssue vetoes). The last case is the CI telemetry smoke,
// `flamesim -bench Triad -telemetry -trace-out ... -interval 1000`, on
// the full 16-SM GTX480. It catches a change of the tie-break rule
// itself.
// Regenerate with UPDATE_TELEMETRY_PINS=1 go test ./internal/telemetry
// -run TestTelemetryPinned after a reviewed simulator change.
func TestTelemetryPinned(t *testing.T) {
	type pinCase struct {
		name, bench string
		cfg         gpu.Config
		opt         core.Options
		every       int64
	}
	var cases []pinCase
	for _, b := range []string{"Triad", "LUD", "SRAD"} {
		cases = append(cases,
			pinCase{b + "/baseline", b, testArch(), core.Options{Scheme: core.Baseline}, 500},
			pinCase{b + "/flame", b, testArch(), core.FlameOptions(), 500})
	}
	cases = append(cases, pinCase{"flamesim-smoke", "Triad", gpu.GTX480(),
		core.Options{Scheme: core.SensorRenaming, WCDL: 20, ExtendRegions: true}, 1000})

	var got strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&got, "== %s\n%s", c.name, telemetryDump(t, c.cfg, c.bench, c.opt, c.every))
	}
	path := filepath.Join("testdata", "telemetry.golden")
	if os.Getenv("UPDATE_TELEMETRY_PINS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_TELEMETRY_PINS=1)", err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("telemetry drifted from %s at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("telemetry drifted from %s: %d lines, want %d", path, len(g), len(w))
	}
}
