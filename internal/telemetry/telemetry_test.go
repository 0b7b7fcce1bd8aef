package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/telemetry"
)

// testArch is a 4-SM GTX480: small enough for fast tests, big enough
// that slot attribution spans SMs with different dispatch shares.
func testArch(noskip bool) gpu.Config {
	cfg := gpu.GTX480()
	cfg.NumSMs = 4
	cfg.NoCycleSkip = noskip
	return cfg
}

func runBench(t *testing.T, cfg gpu.Config, name string, opt core.Options, extra *gpu.Hooks) *core.Result {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec()
	comp, err := core.Compile(spec.Prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCompiledOpts(cfg, spec, comp, nil, core.RunOpts{Hooks: extra})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSlotInvariants asserts the taxonomy is an exact partition of the
// machine's issue capacity: credited slots sum to Cycles × SMs ×
// schedulers, issued slots equal Stats.Issued, and the four stall
// reasons sum to Stats.StallCycles — per benchmark, per scheme,
// including multi-launch workloads.
func TestSlotInvariants(t *testing.T) {
	for _, scheme := range []struct {
		name string
		opt  core.Options
	}{
		{"baseline", core.Options{Scheme: core.Baseline}},
		{"flame", core.FlameOptions()},
	} {
		for _, name := range []string{"Triad", "SGEMM", "BFS"} {
			t.Run(scheme.name+"/"+name, func(t *testing.T) {
				cfg := testArch(false)
				col := telemetry.NewCollector(&cfg)
				res := runBench(t, cfg, name, scheme.opt, col.Hooks())

				slots := int64(cfg.NumSMs) * int64(cfg.SchedulersPerSM) * res.Stats.Cycles
				if got := col.TotalSlots(); got != slots {
					t.Errorf("total slots %d, want Cycles×SMs×scheds = %d", got, slots)
				}
				tot := col.Totals()
				if tot[gpu.SlotIssued] != res.Stats.Issued {
					t.Errorf("issued slots %d, want Stats.Issued %d",
						tot[gpu.SlotIssued], res.Stats.Issued)
				}
				stall := tot[gpu.SlotScoreboard] + tot[gpu.SlotMemory] +
					tot[gpu.SlotBarrier] + tot[gpu.SlotRBQ]
				if stall != res.Stats.StallCycles {
					t.Errorf("stall slots %d, want Stats.StallCycles %d",
						stall, res.Stats.StallCycles)
				}
				// Per-warp rows must agree with the per-SM rows they roll
				// up into for warp-attributed reasons.
				for sm := 0; sm < cfg.NumSMs; sm++ {
					var issued int64
					for w := 0; w < cfg.MaxWarpsPerSM; w++ {
						issued += col.Warp(sm, w)[gpu.SlotIssued]
					}
					if issued != col.SM(sm)[gpu.SlotIssued] {
						t.Errorf("SM%d: per-warp issued %d != per-SM %d",
							sm, issued, col.SM(sm)[gpu.SlotIssued])
					}
				}
			})
		}
	}
}

// TestSlotSkipEquivalence asserts the tentpole bit-identity claim: the
// full per-SM and per-warp attribution CSVs are byte-identical with and
// without event-driven cycle skipping, under the flame scheme whose RBQ
// suspensions exercise the hook-bounded skip paths.
func TestSlotSkipEquivalence(t *testing.T) {
	for _, name := range []string{"Triad", "SGEMM", "BFS"} {
		t.Run(name, func(t *testing.T) {
			dump := func(noskip bool) (string, string, [gpu.NumSlotReasons]int64) {
				cfg := testArch(noskip)
				col := telemetry.NewCollector(&cfg)
				runBench(t, cfg, name, core.FlameOptions(), col.Hooks())
				var sm, warp bytes.Buffer
				if err := col.WriteCSV(&sm); err != nil {
					t.Fatal(err)
				}
				if err := col.WriteWarpCSV(&warp); err != nil {
					t.Fatal(err)
				}
				return sm.String(), warp.String(), col.Totals()
			}
			smN, warpN, totN := dump(true)
			smF, warpF, totF := dump(false)
			if smN != smF {
				t.Errorf("per-SM attribution diverges:\n naive:\n%s\n fast:\n%s", smN, smF)
			}
			if warpN != warpF {
				t.Errorf("per-warp attribution diverges")
			}
			if totN != totF {
				t.Errorf("totals diverge: %v vs %v", totN, totF)
			}
			if totN[gpu.SlotRBQ] == 0 {
				t.Errorf("%s under flame never booked an RBQ slot; taxonomy not exercised", name)
			}
		})
	}
}

// TestSamplerSkipEquivalence asserts the interval series is identical
// with and without skipping: the sampler's OnAdvance stops jumps at
// sample boundaries, so cumulative counters at each boundary match the
// naive loop exactly.
func TestSamplerSkipEquivalence(t *testing.T) {
	series := func(noskip bool) []byte {
		cfg := testArch(noskip)
		col := telemetry.NewCollector(&cfg)
		smp := telemetry.NewSampler(100)
		smp.Collector = col
		runBench(t, cfg, "Triad", core.FlameOptions(),
			gpu.CombineHooks(col.Hooks(), smp.Hooks()))
		if len(smp.Samples) < 3 {
			t.Fatalf("only %d samples; shrink the interval", len(smp.Samples))
		}
		var buf bytes.Buffer
		if err := smp.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	naive, fast := series(true), series(false)
	if !bytes.Equal(naive, fast) {
		t.Errorf("interval series diverges:\n naive:\n%s\n fast:\n%s", naive, fast)
	}
}

// perfettoDoc mirrors the trace_event JSON envelope for assertions.
type perfettoDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestPerfettoTrace asserts the exported trace is valid trace_event
// JSON and shows the paper's latency-hiding claim: RBQ-suspension spans
// during which *other* warps keep issuing.
func TestPerfettoTrace(t *testing.T) {
	cfg := testArch(false)
	tw := telemetry.NewTraceWriter()
	runBench(t, cfg, "Triad", core.FlameOptions(), tw.Hooks())

	var buf bytes.Buffer
	if err := tw.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Pair up rbq-wait B/E spans per (SM, warp) track.
	type track struct{ pid, tid int }
	type span struct {
		track
		begin, end int64
	}
	open := map[track]int64{}
	var spans []span
	issues := 0
	for _, e := range doc.TraceEvents {
		k := track{e.PID, e.TID}
		switch {
		case e.Name == "rbq-wait" && e.Ph == "B":
			open[k] = e.TS
		case e.Name == "rbq-wait" && e.Ph == "E":
			b, ok := open[k]
			if !ok {
				t.Fatalf("rbq-wait E without B on SM%d/warp%d at ts=%d", e.PID, e.TID, e.TS)
			}
			delete(open, k)
			spans = append(spans, span{k, b, e.TS})
		case e.Ph == "X":
			issues++
		}
	}
	if len(open) != 0 {
		t.Errorf("%d rbq-wait spans left open", len(open))
	}
	if len(spans) == 0 {
		t.Fatal("no rbq-wait spans; flame run should suspend warps at boundaries")
	}
	if issues == 0 {
		t.Fatal("no issue events")
	}

	// The headline overlap: during some warp's RBQ suspension, another
	// warp on the same SM issued.
	overlap := false
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		for _, s := range spans {
			if e.PID == s.pid && e.TID != s.tid && e.TS >= s.begin && e.TS < s.end {
				overlap = true
				break
			}
		}
		if overlap {
			break
		}
	}
	if !overlap {
		t.Error("no issue event overlaps another warp's rbq-wait span; latency hiding invisible")
	}
}

// TestStatsRoundTrip asserts the reflection field list covers every
// gpu.Stats field: a struct with every counter set to a distinct value
// reads back through StatsValues in StatsFields order, so a new counter
// can never be silently dropped from the interval sampler's CSV.
func TestStatsRoundTrip(t *testing.T) {
	var s gpu.Stats
	v := reflect.ValueOf(&s).Elem()
	if v.NumField() != len(telemetry.StatsFields()) {
		t.Fatalf("StatsFields covers %d of %d struct fields",
			len(telemetry.StatsFields()), v.NumField())
	}
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1_000_003 + i))
	}
	for i, x := range telemetry.StatsValues(&s) {
		if name := telemetry.StatsFields()[i]; x != v.FieldByName(name).Int() {
			t.Errorf("StatsValues[%d] = %d, want field %s = %d", i, x, name, v.FieldByName(name).Int())
		}
	}
}

// TestCollectorResetAndTable smoke-tests the human-readable surface.
func TestCollectorResetAndTable(t *testing.T) {
	cfg := testArch(false)
	col := telemetry.NewCollector(&cfg)
	runBench(t, cfg, "Triad", core.Options{Scheme: core.Baseline}, col.Hooks())
	if col.TotalSlots() == 0 {
		t.Fatal("no slots collected")
	}
	tab := col.Table()
	for _, want := range []string{"issued", "scoreboard", "memory", "least-issuing"} {
		if !bytes.Contains([]byte(tab), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	col.Reset()
	if col.TotalSlots() != 0 {
		t.Error("Reset left credits behind")
	}
}
