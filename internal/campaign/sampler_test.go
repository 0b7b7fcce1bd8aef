package campaign

import (
	"bytes"
	"strings"
	"testing"
)

func stratConfig(t *testing.T, names []string, budget, parallel int) Config {
	t.Helper()
	cfg := testConfig(t, names, budget, parallel)
	cfg.Stratify = true
	cfg.Pilot = 4
	return cfg
}

// The stratified report must be byte-identical at -parallel 1 and 8:
// stratum schedules come from the seed tree, rounds are barriers, and
// results fold into counts.
func TestStratifiedDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(parallel int) []byte {
		rep, err := Run(stratConfig(t, []string{"Triad", "Histogram"}, 48, parallel))
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := run(1)
	par := run(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("stratified reports differ across worker counts:\n-parallel 1:\n%s\n-parallel 8:\n%s", seq, par)
	}
}

// Stratified trials never classify NoInjection: the sampler draws only
// from the enumerated corruptible strata, excluding the no-injection
// tail analytically. The report must carry the sampling breakdown with
// consistent totals.
func TestStratifiedReportShape(t *testing.T) {
	rep, err := Run(stratConfig(t, []string{"Triad"}, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stratified {
		t.Fatal("report not marked stratified")
	}
	br := &rep.Benchmarks[0]
	if br.NoInjection != 0 {
		t.Fatalf("stratified campaign produced %d no-injection trials", br.NoInjection)
	}
	s := br.Sampling
	if s == nil {
		t.Fatal("missing sampling breakdown")
	}
	if s.StopReason != "budget" {
		t.Fatalf("stop reason %q, want budget (no CI target set)", s.StopReason)
	}
	if s.TrialsUsed != br.Trials || s.TrialsUsed != 40 {
		t.Fatalf("trials_used=%d report trials=%d budget=40", s.TrialsUsed, br.Trials)
	}
	if len(s.Strata) == 0 || s.SpanSites <= 0 || s.NoInjectionSites < 0 {
		t.Fatalf("bad enumeration: %+v", s)
	}
	sumTrials, sumSites := 0, int64(0)
	for _, st := range s.Strata {
		sumTrials += st.Trials
		sumSites += st.Sites
		if got := st.Masked + st.Recovered + st.SDC + st.DUE + st.Hang + st.Internal; got != st.Trials {
			t.Fatalf("stratum %s outcomes %d != trials %d", st.Key, got, st.Trials)
		}
	}
	if sumTrials != s.TrialsUsed {
		t.Fatalf("stratum trials %d != used %d", sumTrials, s.TrialsUsed)
	}
	if sumSites != s.SpanSites-s.NoInjectionSites {
		t.Fatalf("stratum sites %d != injectable %d", sumSites, s.SpanSites-s.NoInjectionSites)
	}
}

// A generous CI target must stop before the budget and say so.
func TestStratifiedEarlyStop(t *testing.T) {
	cfg := stratConfig(t, []string{"Triad"}, 400, 4)
	cfg.CITarget = 0.25 // very loose: a couple of rounds suffice
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Benchmarks[0].Sampling
	if s.StopReason != "ci_target" {
		t.Fatalf("stop reason %q, want ci_target (sampling: %+v)", s.StopReason, s)
	}
	if s.TrialsUsed >= s.Budget {
		t.Fatalf("early stop used the whole budget: %d/%d", s.TrialsUsed, s.Budget)
	}
	if s.SDCRate.Hi-s.SDCRate.Lo > 2*cfg.CITarget || s.DUERate.Hi-s.DUERate.Lo > 2*cfg.CITarget {
		t.Fatalf("stopped with CI wider than target: %+v", s)
	}
}

// A stratified event stream must replay into the exact report Run
// returned, including the sampling breakdown.
func TestStratifiedStreamReplay(t *testing.T) {
	var buf bytes.Buffer
	cfg := stratConfig(t, []string{"Triad", "Histogram"}, 32, 4)
	cfg.CITarget = 0.2
	cfg.Events = &buf
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.JSON()
	got, _ := replayed.JSON()
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed stratified report differs:\nrun:\n%s\nreplay:\n%s", want, got)
	}
}

// The audit protocol: the stratified estimate must fall inside the
// uniform exact grid's Wilson CI at the same budget.
func TestStratifiedAudit(t *testing.T) {
	cfg := stratConfig(t, []string{"Triad"}, 48, 4)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Benchmarks) != 1 {
		t.Fatalf("audit covered %d benchmarks", len(audit.Benchmarks))
	}
	if !audit.Pass {
		t.Fatalf("audit failed: %s", audit)
	}
}

// Stratified mode rejects configs it cannot honour deterministically.
func TestStratifiedConfigValidation(t *testing.T) {
	cfg := stratConfig(t, []string{"Triad"}, 10, 1)
	cfg.StrikesPerTrial = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("multi-strike stratified config accepted")
	}
	cfg = stratConfig(t, []string{"Triad"}, 10, 1)
	cfg.Skip = func(string, int) bool { return false }
	if _, err := Run(cfg); err == nil {
		t.Fatal("stratified config with Skip accepted")
	}
	cfg = stratConfig(t, []string{"Triad"}, 10, 1)
	cfg.StrataKey = "opcode"
	if _, err := Run(cfg); err == nil {
		t.Fatal("stratified config with unknown strata key accepted")
	}
}

// The liveness stratification key must stay byte-identical across
// worker counts, carry the four-segment keys in the sampling breakdown,
// and draw a different — not a reshuffled — trial grid than the default
// key (key strings feed the stratum seed streams).
func TestStratifiedLivenessKeyDeterministic(t *testing.T) {
	run := func(parallel int, key string) []byte {
		cfg := stratConfig(t, []string{"Triad", "Histogram"}, 48, parallel)
		cfg.StrataKey = key
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if key == "liveness" {
			for _, br := range rep.Benchmarks {
				for _, st := range br.Sampling.Strata {
					if n := len(strings.Split(st.Key, "/")); n != 4 {
						t.Fatalf("%s: stratum key %q has %d segments, want 4", br.Benchmark, st.Key, n)
					}
				}
			}
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := run(1, "liveness")
	par := run(8, "liveness")
	if !bytes.Equal(seq, par) {
		t.Fatalf("liveness-keyed reports differ across worker counts:\n-parallel 1:\n%s\n-parallel 8:\n%s", seq, par)
	}
	if def := run(1, ""); bytes.Equal(seq, def) {
		t.Fatal("liveness key produced the default key's report; the key is not reaching the seed tree")
	}
}

// Pruning composes with stratification: the report is identical except
// for the pruned_* counters.
func TestStratifiedPruneIdentical(t *testing.T) {
	base := stratConfig(t, []string{"Triad"}, 24, 4)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pruned := stratConfig(t, []string{"Triad"}, 24, 4)
	pruned.Prune = true
	prep, err := Run(pruned)
	if err != nil {
		t.Fatal(err)
	}
	// Scrub the pruned counters; everything else must match bytewise.
	for _, r := range []*Report{plain, prep} {
		for i := range r.Benchmarks {
			r.Benchmarks[i].PrunedMasked = 0
			r.Benchmarks[i].PrunedNoInjection = 0
		}
		r.Fleet.PrunedMasked = 0
		r.Fleet.PrunedNoInjection = 0
	}
	a, _ := plain.JSON()
	b, _ := prep.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("prune changed stratified outcomes:\nplain:\n%s\npruned:\n%s", a, b)
	}
}
