package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flame/internal/core"
	"flame/internal/gpu"
	"flame/internal/isa"
)

// TestReportIdenticalCOWvsNoCOW is the dirty-page restore contract at
// campaign level: page-granular restore/diff (the default) and
// full-image restore/scan (no-COW engines, swapped in through newEngine)
// must yield byte-identical JSON reports at any worker count, and the
// deterministic page counters (dirty, diff) must not depend on either
// mode.
func TestReportIdenticalCOWvsNoCOW(t *testing.T) {
	names := []string{"Triad", "Histogram", "SRAD"}
	type run struct {
		json []byte
		rs   core.RestoreStats
	}
	do := func(parallel int, noCOW bool) run {
		cfg := testConfig(t, names, 6, parallel)
		newEngine = func(arch gpu.Config) *core.Engine {
			e := core.NewEngine(arch)
			e.SetNoCOW(noCOW)
			return e
		}
		defer func() { newEngine = core.NewEngine }()
		var rs core.RestoreStats
		cfg.RestoreStats = &rs
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return run{data, rs}
	}
	ref := do(1, false)
	for _, parallel := range []int{1, 8} {
		for _, noCOW := range []bool{false, true} {
			r := do(parallel, noCOW)
			if !bytes.Equal(ref.json, r.json) {
				t.Fatalf("report differs at parallel=%d noCOW=%v:\nref:\n%s\ngot:\n%s",
					parallel, noCOW, ref.json, r.json)
			}
			if r.rs.DirtyPages != ref.rs.DirtyPages {
				t.Errorf("parallel=%d noCOW=%v: dirty pages %d, want %d (deterministic per trial)",
					parallel, noCOW, r.rs.DirtyPages, ref.rs.DirtyPages)
			}
			if !noCOW && r.rs.DiffPages != ref.rs.DiffPages {
				t.Errorf("parallel=%d: diff pages %d, want %d (deterministic per trial)",
					parallel, r.rs.DiffPages, ref.rs.DiffPages)
			}
			if noCOW && r.rs.DiffPages != 0 {
				t.Errorf("parallel=%d noCOW: diff pages %d, want 0 (full scans bypass the page counter)",
					parallel, r.rs.DiffPages)
			}
		}
	}
	if ref.rs.DirtyPages <= 0 || ref.rs.DiffPages <= 0 {
		t.Fatalf("page counters did not accumulate: %+v", ref.rs)
	}
}

// TestPruneReportMatchesFullSimulation is the pruning contract at
// campaign level: with Prune on, the report must be byte-identical to
// the fully-simulated report except for the pruned_* counters — same
// outcomes, same coverage, same exemplar strings — at any worker count.
// It runs both a controller-less scheme (Baseline, where dead-register
// strikes prune as Masked outright) and a detecting scheme (flame,
// where the static detection-outcome model keeps the pruner live:
// SRAD's multi-launch window arms trials past the main kernel, and
// those prune to NoInjection without consulting the controller).
func TestPruneReportMatchesFullSimulation(t *testing.T) {
	names := []string{"Triad", "Histogram", "SRAD"}
	schemes := []struct {
		name string
		opt  core.Options
	}{
		{"baseline", core.Options{Scheme: core.Baseline}},
		{"flame", core.FlameOptions()},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			do := func(parallel int, prune bool) *Report {
				cfg := testConfig(t, names, 25, parallel)
				cfg.Opt = sc.opt
				cfg.Prune = prune
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			full, err := do(4, false).JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []int{1, 8} {
				pruned := do(parallel, true)
				got := pruned.Fleet.PrunedMasked + pruned.Fleet.PrunedNoInjection
				if got == 0 {
					t.Fatalf("parallel=%d: pruner classified no trials; the equivalence check is vacuous", parallel)
				}
				// Erase the only fields allowed to differ, then demand byte
				// equality with the fully-simulated report.
				for i := range pruned.Benchmarks {
					pruned.Benchmarks[i].PrunedMasked = 0
					pruned.Benchmarks[i].PrunedNoInjection = 0
				}
				pruned.Fleet.PrunedMasked = 0
				pruned.Fleet.PrunedNoInjection = 0
				data, err := pruned.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(full, data) {
					t.Fatalf("parallel=%d: pruned report differs beyond pruned_* counters:\nfull:\n%s\npruned:\n%s",
						parallel, full, data)
				}
				t.Logf("parallel=%d: %d trials pruned, report otherwise byte-identical", parallel, got)
			}
		})
	}
}

// entryLivenessSpec is a valid kernel (r5 reads the architectural zero
// of an unwritten register) that nonetheless trips the prune index's
// entry-liveness soundness gate, forcing the silent-fallback path.
func entryLivenessSpec() *core.KernelSpec {
	const src = `
	    mov r0, %tid.x
	    shl r1, r0, 2
	    ld.param r2, [0]
	    add r3, r2, r1
	    add r4, r5, 1
	    st.global [r3], r4
	    exit
	`
	return &core.KernelSpec{
		Name:     "entrylive",
		Prog:     isa.MustParse("entrylive", src),
		Grid:     isa.Dim3{X: 1},
		Block:    isa.Dim3{X: 32},
		Params:   []uint32{0},
		MemBytes: 1 << 12,
		Validate: func(mem []uint32) error {
			for i := 0; i < 32; i++ {
				if mem[i] != 1 {
					return fmt.Errorf("word %d = %d, want 1", i, mem[i])
				}
			}
			return nil
		},
	}
}

// TestPruneDisabledSurfaced: a workload whose index fails a soundness
// gate must say so — in its BenchReport, in the JSONL stream (and so in
// the replayed report, byte-identically), while live workloads stay
// unmarked and prune-off reports keep their existing bytes.
func TestPruneDisabledSurfaced(t *testing.T) {
	mkcfg := func() Config {
		cfg := testConfig(t, []string{"Histogram"}, 12, 4)
		cfg.Opt = core.Options{Scheme: core.Baseline}
		cfg.Specs = append(cfg.Specs, entryLivenessSpec())
		return cfg
	}
	cfg := mkcfg()
	cfg.Prune = true
	var buf bytes.Buffer
	cfg.Events = &buf
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Benchmarks[0].PruneDisabled; got != "" {
		t.Errorf("live index marked disabled: %q", got)
	}
	reason := rep.Benchmarks[1].PruneDisabled
	if !strings.Contains(reason, "entry liveness") {
		t.Fatalf("entrylive PruneDisabled = %q, want an entry-liveness reason", reason)
	}
	if rep.Fleet.PruneDisabled != "" {
		t.Errorf("fleet aggregate carries a per-workload fallback: %q", rep.Fleet.PruneDisabled)
	}
	if rep.Benchmarks[0].PrunedMasked+rep.Benchmarks[0].PrunedNoInjection == 0 {
		t.Error("live workload pruned nothing; the mixed-campaign check is vacuous")
	}
	if !strings.Contains(buf.String(), `"event":"prune_disabled"`) {
		t.Fatalf("stream carries no prune_disabled event:\n%s", buf.String())
	}
	replayed, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.JSON()
	got, _ := replayed.JSON()
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed report differs:\nrun:\n%s\nreplay:\n%s", want, got)
	}

	// Prune off: the key must not appear at all (omitempty contract).
	off, err := Run(mkcfg())
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := off.JSON(); bytes.Contains(data, []byte("prune_disabled")) {
		t.Fatalf("prune-off report grew a prune_disabled field:\n%s", data)
	}

	// The stratified path surfaces the same fallback.
	scfg := mkcfg()
	scfg.Stratify = true
	scfg.Pilot = 4
	scfg.Prune = true
	srep, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := srep.Benchmarks[1].PruneDisabled; got != reason {
		t.Fatalf("stratified PruneDisabled = %q, want %q", got, reason)
	}
}

// TestPrunedEventStreamReplays pins the stream round-trip of the Pruned
// marker: a pruned campaign's JSONL replays into the same report,
// pruned counters included.
func TestPrunedEventStreamReplays(t *testing.T) {
	cfg := testConfig(t, []string{"Histogram"}, 25, 4)
	cfg.Opt = core.Options{Scheme: core.Baseline}
	cfg.Prune = true
	var buf bytes.Buffer
	cfg.Events = &buf
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.PrunedMasked+rep.Fleet.PrunedNoInjection == 0 {
		t.Fatal("campaign pruned nothing; replay check is vacuous")
	}
	replayed, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed pruned report differs:\nrun:\n%s\nreplay:\n%s", want, got)
	}
}
