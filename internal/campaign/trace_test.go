package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"flame/internal/core"
	"flame/internal/flame"
)

// stripPropagation clears the propagation sections of a traced report
// so it can be compared byte-for-byte against an untraced one.
func stripPropagation(rep *Report) {
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].Propagation = nil
	}
	rep.Fleet.Propagation = nil
}

// TestTraceDoesNotChangeOutcomes is the tentpole's acceptance contract:
// enabling propagation tracing must not change a single outcome byte —
// stripping the propagation sections from a traced report yields the
// untraced report exactly, at multiple worker counts, and under the
// full-site baseline (where SDC trials exercise the fingerprint path).
func TestTraceDoesNotChangeOutcomes(t *testing.T) {
	for _, scheme := range []string{"flame", "baseline-full"} {
		t.Run(scheme, func(t *testing.T) {
			run := func(trace bool, parallel int) *Report {
				cfg := testConfig(t, []string{"Triad", "Histogram"}, 10, parallel)
				if scheme == "baseline-full" {
					cfg.Opt = core.Options{Scheme: core.Baseline}
					cfg.Model = flame.FullSite
				}
				cfg.Trace = trace
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain, err := run(false, 1).JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []int{1, 8} {
				traced := run(true, parallel)
				if traced.Fleet.Propagation == nil || traced.Fleet.Propagation.Traced == 0 {
					t.Fatalf("parallel=%d: traced report has no propagation section", parallel)
				}
				stripPropagation(traced)
				got, err := traced.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain, got) {
					t.Fatalf("parallel=%d: traced report (propagation stripped) differs from untraced:\n-untraced:\n%s\n-traced:\n%s",
						parallel, plain, got)
				}
			}
		})
	}
}

// TestTraceDeterministicAcrossWorkers: the full traced report — depth
// percentiles, fingerprints, histograms included — is byte-identical
// across worker counts.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(parallel int) []byte {
		cfg := testConfig(t, []string{"Triad", "Histogram"}, 8, parallel)
		cfg.Opt = core.Options{Scheme: core.Baseline}
		cfg.Model = flame.FullSite // reaches SDC outcomes
		cfg.Trace = true
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if ref, got := run(1), run(8); !bytes.Equal(ref, got) {
		t.Fatalf("traced report differs at parallel=8:\nparallel=1:\n%s\nparallel=8:\n%s", ref, got)
	}
}

// TestTracedStreamReplays: a traced event stream carries the prop
// records and replays into the exact traced report, and its trial
// events parse with the documented prop shape.
func TestTracedStreamReplays(t *testing.T) {
	var stream bytes.Buffer
	cfg := testConfig(t, []string{"Triad", "Histogram"}, 8, 4)
	cfg.Opt = core.Options{Scheme: core.Baseline}
	cfg.Model = flame.FullSite
	cfg.Trace = true
	cfg.Events = &stream
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed traced report differs:\n-live:\n%s\n-replayed:\n%s", want, got)
	}

	// Spot-check stream shape: the header carries trace, and at least
	// one trial event carries a prop record with a strike cycle.
	var sawTraceFlag, sawProp bool
	for _, line := range bytes.Split(stream.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, line)
		}
		switch {
		case obj["event"] != nil && string(obj["event"]) == `"campaign_start"`:
			if _, ok := obj["trace"]; ok {
				sawTraceFlag = true
			}
		case string(obj["event"]) == `"trial"`:
			if raw, ok := obj["prop"]; ok {
				var p core.PropRecord
				if err := json.Unmarshal(raw, &p); err != nil {
					t.Fatalf("prop record does not parse: %v\n%s", err, raw)
				}
				if p.StrikeCycle < 0 {
					t.Fatalf("prop record with negative strike cycle: %s", raw)
				}
				sawProp = true
			}
		}
	}
	if !sawTraceFlag {
		t.Error("campaign_start missing trace flag")
	}
	if !sawProp {
		t.Error("no trial event carried a prop record")
	}
}

// TestTracePruneCompose: tracing composes with pruning — pruned trials
// carry no record (they skip simulation), simulated ones do, and the
// outcome counters still match the fully-simulated report.
func TestTracePruneCompose(t *testing.T) {
	run := func(prune bool) *Report {
		cfg := testConfig(t, []string{"Triad", "Histogram"}, 20, 4)
		cfg.Trace = true
		cfg.Prune = prune
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := run(false)
	pruned := run(true)
	fp := pruned.Fleet.Propagation
	if fp == nil {
		t.Fatal("pruned traced report has no propagation section")
	}
	// Only simulated injected trials carry records: pruned-masked trials
	// were injected but skipped simulation, pruned-no-injection trials
	// never carried one anyway.
	if fp.Traced+pruned.Fleet.PrunedMasked != full.Fleet.Propagation.Traced {
		t.Fatalf("traced count %d + pruned-masked %d != full traced %d",
			fp.Traced, pruned.Fleet.PrunedMasked, full.Fleet.Propagation.Traced)
	}
	if pr := pruned.Fleet.PrunedMasked + pruned.Fleet.PrunedNoInjection; pr > 0 && fp.PruneFraction <= 0 {
		t.Fatalf("prune fraction %v with %d pruned trials", fp.PruneFraction, pr)
	}
	if full.Fleet.Masked != pruned.Fleet.Masked || full.Fleet.SDC != pruned.Fleet.SDC {
		t.Fatalf("outcome counters differ: full %+v pruned %+v", full.Fleet, pruned.Fleet)
	}
}
