package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// The strike-model pins: the trial lines and strata listings that
// depend on where a strike may land, which lanes it may pick and in
// which order it draws lane, bit and sensor delay. A change meant to
// move them regenerates the files with
// UPDATE_GRID_PINS=1 go test ./cmd/flameinject -run Pinned
// and the diff then shows which lines moved.
var (
	strikePinFile = filepath.Join("testdata", "strike_trials.txt")
	strataPinFile = filepath.Join("testdata", "strata_4sm.txt")
)

// strikePinCampaigns are the pinned campaigns, as flameinject flags.
// sms is the SM count (0 keeps the architecture's own). Together they
// stream register, excluded, store-data, multi-strike, pruned,
// recovered and DUE trial lines.
var strikePinCampaigns = []struct {
	args string
	sms  int
}{
	{"-bench Triad,Histogram,SRAD -trials 8 -scheme baseline -prune -fingerprint", 4},
	{"-bench Triad,Histogram,SRAD -trials 8 -scheme baseline -model full -strikes 2 -fingerprint", 4},
	{"-bench Triad,Histogram,SRAD -trials 8 -scheme flame -prune -fingerprint", 4},
	{"-bench Triad,Histogram,SRAD -trials 8 -scheme dup-renaming", 4},
	{"-bench Triad -trials 3 -scheme baseline -model full -strikes 2 -budget 4 -seed 11", 0},
}

// pinConfig resolves flameinject flags into their campaign, at sms SMs
// when sms > 0.
func pinConfig(t *testing.T, args string, sms int) campaign.Config {
	t.Helper()
	fs := flag.NewFlagSet("flameinject", flag.ContinueOnError)
	cf := campaignflag.Bind(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	if sms > 0 {
		cfg.Arch.NumSMs = sms
	}
	return cfg
}

// checkPin compares body with the pin file, rewriting it first under
// UPDATE_GRID_PINS.
func checkPin(t *testing.T, file, body string) {
	t.Helper()
	if os.Getenv("UPDATE_GRID_PINS") != "" {
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GRID_PINS=1)", err)
	}
	if string(want) != body {
		t.Errorf("%s moved:\ngot:\n%s\nwant:\n%s", file, body, want)
	}
}

// TestStrikeTrialsPinned runs every pinned campaign, diffs its trial
// lines (in benchmark, then trial order) against the pin file, and
// re-runs each trial on a campaign.Executor, as -explain does: the
// re-run's line must equal the streamed one byte for byte.
func TestStrikeTrialsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five campaigns")
	}
	var body strings.Builder
	kinds := map[string]bool{}
	for _, c := range strikePinCampaigns {
		cfg := pinConfig(t, c.args, c.sms)
		var events bytes.Buffer
		cfg.Events = &events
		if _, err := campaign.Run(cfg); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		streamed := map[string][]byte{}
		for _, line := range bytes.SplitAfter(events.Bytes(), []byte("\n")) {
			if name, tr, _, err := campaign.DecodeTrial(line); err == nil {
				streamed[fmt.Sprintf("%s:%d", name, tr)] = line
			}
		}

		fmt.Fprintf(&body, "## %s (sms %d)\n", c.args, c.sms)
		cfg.Events = nil
		set, err := cfg.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		x := cfg.NewExecutor(set)
		for b, spec := range cfg.Specs {
			for tr := 0; tr < cfg.Trials; tr++ {
				ref := fmt.Sprintf("%s:%d", spec.Name, tr)
				line := streamed[ref]
				if line == nil {
					t.Fatalf("%s: trial %s not streamed", c.args, ref)
				}
				body.Write(line)
				res := x.Trial(b, cfg.TrialSpec(set[b].Golden, spec.Name, tr))
				again, err := campaign.MarshalTrialEvent(spec.Name, tr, res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, line) {
					t.Errorf("%s %s: executor re-run differs from the streamed line\nre-run:   %sstreamed: %s", c.args, ref, again, line)
				}
				noteStrikeKinds(kinds, res)
			}
		}
	}
	for _, k := range []string{"register", "excluded", "store-data", "multi-strike", "pruned", "recovered", "due"} {
		if !kinds[k] {
			t.Errorf("the pinned campaigns stream no %s trial line", k)
		}
	}
	checkPin(t, strikePinFile, body.String())
}

// noteStrikeKinds records which kinds of strike line res exercises.
func noteStrikeKinds(kinds map[string]bool, res *core.TrialResult) {
	switch {
	case strings.Contains(res.Description, " of store data "):
		kinds["store-data"] = true
	case strings.Contains(res.Description, "flipped bit"):
		kinds["register"] = true
	}
	kinds["excluded"] = kinds["excluded"] || res.ExcludedStrikes > 0
	kinds["multi-strike"] = kinds["multi-strike"] || res.Strikes > 1
	kinds["pruned"] = kinds["pruned"] || res.Pruned
	kinds["recovered"] = kinds["recovered"] || res.Outcome == core.OutcomeRecovered
	kinds["due"] = kinds["due"] || res.Outcome == core.OutcomeDUE
}

// TestStrataListingsPinned diffs the -list-strata tables of the quick
// suite at 4 SMs, under both strata keys and both fault models, against
// the pin file.
func TestStrataListingsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates the quick suite four times")
	}
	arch := gpu.GTX480()
	arch.NumSMs = 4
	opt := pinConfig(t, "", 0).Opt
	var specs []*core.KernelSpec
	for _, name := range bench.QuickSuite {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, b.Spec())
	}
	var body strings.Builder
	for _, key := range []core.StrataKey{core.StrataKeySectionClass, core.StrataKeyLiveness} {
		for _, model := range []flame.FaultModel{flame.DataSlice, flame.FullSite} {
			fmt.Fprintf(&body, "## -strata-key %s -model %s\n", key, model)
			body.WriteString(strataTable(arch, opt, specs, model, key))
		}
	}
	checkPin(t, strataPinFile, body.String())
}
