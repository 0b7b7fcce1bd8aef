// Package campaignflag is the campaign flag set shared by the
// in-process campaign runner (flameinject) and the distributed
// coordinator (flameserve): workload suite, scheme, architecture,
// fault model, trial parameters and pruning, resolved into one
// campaign.Config, plus the -json report output and the
// uncovered-outcome exit rule both commands apply. Resolve, which turns
// a campaign.Identity into the campaign it names, serves the flags and
// the distributed service's wire identity alike.
package campaignflag

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// Flags holds the bound campaign flags.
type Flags struct {
	bench, suite, scheme, arch, model *string
	wcdl, trials, strikes             *int
	extend, fingerprint, prune        *bool
	seed                              *uint64
	budget                            *int64
	trialTimeout                      *time.Duration
	ciTarget                          *float64
	json                              *string
}

// Bind defines the campaign flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	return &Flags{
		bench:        fs.String("bench", "", "comma-separated benchmark names (default: -suite)"),
		suite:        fs.String("suite", "quick", "benchmark suite: quick (8 diverse workloads) or all"),
		scheme:       fs.String("scheme", "flame", "resilience scheme (see -h of flamecc)"),
		arch:         fs.String("arch", "GTX480", "GPU architecture: GTX480, TITANX, GV100, RTX2060"),
		wcdl:         fs.Int("wcdl", 20, "sensor WCDL (cycles)"),
		extend:       fs.Bool("extend", true, "enable region extension"),
		trials:       fs.Int("trials", 100, "injection trials per benchmark"),
		seed:         fs.Uint64("seed", 1, "campaign seed (report is a pure function of config+seed)"),
		model:        fs.String("model", "data", "fault model: data (paper's data slice) or full (full site incl. address/control)"),
		strikes:      fs.Int("strikes", 1, "strikes armed per trial"),
		budget:       fs.Int64("budget", 8, "hang watchdog: cycle budget as multiple of the fault-free window"),
		trialTimeout: fs.Duration("trial-timeout", 0, "wall-clock watchdog per trial in whole milliseconds, e.g. 30s (0 = off); timeouts classify as hangs"),
		json:         fs.String("json", "", "also write the report as JSON to this file (- for stdout)"),
		fingerprint:  fs.Bool("fingerprint", false, "trace strike propagation per trial: cycle depth to first corrupted store, detection latency, SDC corruption fingerprints (outcomes and exit codes unchanged)"),
		prune:        fs.Bool("prune", false, "pre-classify provably-masked trials without simulation (bit-identical results; reported as pruned_masked)"),
		ciTarget:     fs.Float64("ci-target", 0, "adaptive early stop: halt a benchmark once both its SDC and DUE Wilson 95% half-widths reach this target (0 = off; flameinject needs -stratify)"),
	}
}

// Config resolves the flags into the campaign they describe, with the
// benchmark specs compiled in. Fields the flags do not cover
// (Parallel, Events, Stop, ...) are left zero for the caller.
func (f *Flags) Config() (campaign.Config, error) {
	arch, err := gpu.ConfigByName(*f.arch)
	if err != nil {
		return campaign.Config{}, err
	}
	var names []string
	switch {
	case *f.bench != "":
		for _, n := range strings.Split(*f.bench, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	case *f.suite == "all":
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
	case *f.suite == "quick":
		names = bench.QuickSuite
	default:
		return campaign.Config{}, fmt.Errorf("unknown suite %q (want quick or all)", *f.suite)
	}
	return Resolve(campaign.Identity{
		Arch:            arch,
		Scheme:          *f.scheme,
		WCDL:            *f.wcdl,
		ExtendRegions:   *f.extend,
		Benchmarks:      names,
		Trials:          *f.trials,
		Seed:            *f.seed,
		Model:           *f.model,
		StrikesPerTrial: *f.strikes,
		HangBudgetMult:  *f.budget,
		TrialTimeoutMS:  f.trialTimeout.Milliseconds(),
		Prune:           *f.prune,
		CITarget:        *f.ciTarget,
		Trace:           *f.fingerprint,
	})
}

// Resolve returns the campaign id names, its benchmark names compiled
// from the registry, and rejects one campaign.Run would reject.
func Resolve(id campaign.Identity) (campaign.Config, error) {
	specs := make([]*core.KernelSpec, len(id.Benchmarks))
	for i, name := range id.Benchmarks {
		b, err := bench.ByName(name)
		if err != nil {
			return campaign.Config{}, err
		}
		specs[i] = b.Spec()
	}
	cfg, err := id.Config(specs)
	if err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// WriteJSON writes the report's JSON to the -json destination, if any.
func (f *Flags) WriteJSON(rep *campaign.Report) error {
	if *f.json == "" {
		return nil
	}
	data, err := rep.JSON()
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	data = append(data, '\n')
	if *f.json == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*f.json, data, 0o644)
}

// Uncovered reports whether the campaign found outcomes the paper's
// coverage claim rules out — SDC or hang under the data-slice model on
// a detecting, recovering scheme — which both commands signal with
// exit code 2.
func Uncovered(cfg *campaign.Config, rep *campaign.Report) bool {
	scheme := cfg.Opt.Scheme
	return cfg.Model == flame.DataSlice && scheme.Recoverable() && scheme.Detects() &&
		(rep.Fleet.SDC > 0 || rep.Fleet.Hang > 0)
}
