package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
)

// TestExplainMatchesStreamedTrial: -explain BENCH:T must re-run exactly
// the trial a traced, pruned campaign streamed as trial T of BENCH —
// the explain line is byte-identical to the campaign's trial line for
// every trial, under a detecting scheme and under baseline.
func TestExplainMatchesStreamedTrial(t *testing.T) {
	uncovered := 0
	for _, scheme := range []string{"flame", "baseline"} {
		fs := flag.NewFlagSet("flameinject", flag.ContinueOnError)
		cf := campaignflag.Bind(fs)
		args := []string{"-bench", "Triad,Histogram", "-trials", "8", "-scheme", scheme, "-prune", "-fingerprint"}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg, err := cf.Config()
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		cfg.Events = &events
		if _, err := campaign.Run(cfg); err != nil {
			t.Fatal(err)
		}

		streamed := map[string][]byte{}
		for _, line := range bytes.SplitAfter(events.Bytes(), []byte("\n")) {
			if bench, tr, _, err := campaign.DecodeTrial(line); err == nil {
				streamed[fmt.Sprintf("%s:%d", bench, tr)] = line
			}
		}
		if len(streamed) != 16 {
			t.Fatalf("%s: %d trial lines streamed, want 16", scheme, len(streamed))
		}

		cfg.Trace = false // -explain traces with or without -fingerprint
		for _, bench := range []string{"Triad", "Histogram"} {
			for tr := 0; tr < 8; tr++ {
				ref := fmt.Sprintf("%s:%d", bench, tr)
				line, res, err := explainTrial(cfg, ref)
				if err != nil {
					t.Fatalf("%s %s: %v", scheme, ref, err)
				}
				if !bytes.Equal(line, streamed[ref]) {
					t.Errorf("%s %s: explain line differs from the streamed one\nexplain:  %s streamed: %s",
						scheme, ref, line, streamed[ref])
				}
				if o := res.Outcome; o == core.OutcomeSDC || o == core.OutcomeDUE || o == core.OutcomeHang {
					uncovered++
				}
			}
		}
	}
	if uncovered == 0 {
		t.Error("no explained trial was SDC, DUE or Hang; the check covers only masked and recovered trials")
	}
}

// TestExplainRejectsMalformedRef: -explain takes BENCH:T with T a
// trial index.
func TestExplainRejectsMalformedRef(t *testing.T) {
	fs := flag.NewFlagSet("flameinject", flag.ContinueOnError)
	cfg, err := campaignflag.Bind(fs).Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "Histogram", "Histogram:", ":5", "Histogram:-1", "Histogram:x", "Histogram:5:6", "NoSuchBench:5"} {
		if _, _, err := explainTrial(cfg, bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// explainWith explains trial ref of the campaign the flameinject flags
// args describe.
func explainWith(t *testing.T, args []string, ref string) *core.TrialResult {
	t.Helper()
	fs := flag.NewFlagSet("flameinject", flag.ContinueOnError)
	cf := campaignflag.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := explainTrial(cfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExplainDUEReportsItsCycle: a DUE trial reports the cycle its
// launch faulted at, the one its error names, not zero.
func TestExplainDUEReportsItsCycle(t *testing.T) {
	res := explainWith(t, []string{"-bench", "Triad", "-scheme", "baseline", "-model", "full",
		"-strikes", "2", "-budget", "4", "-seed", "11"}, "Triad:2")
	if res.Outcome != core.OutcomeDUE || res.Cycles != 972 || !strings.Contains(res.Err, "cycle 972:") {
		t.Fatalf("outcome %v, cycles %d, err %q; want a DUE at cycle 972", res.Outcome, res.Cycles, res.Err)
	}
}

// TestExplainTaintThroughSharedMemory: Histogram bins through shared
// memory, so a strike reaches global memory only via a shared store
// and load; the tracer must follow it there.
func TestExplainTaintThroughSharedMemory(t *testing.T) {
	res := explainWith(t, []string{"-bench", "Histogram", "-scheme", "baseline", "-prune",
		"-fingerprint", "-trials", "8"}, "Histogram:5")
	if res.Outcome != core.OutcomeSDC || res.Prop == nil || res.Prop.Depth < 0 {
		t.Fatalf("outcome %v, prop %+v; want an SDC with a propagation depth >= 0", res.Outcome, res.Prop)
	}
}
