// Command flamebench regenerates the paper's evaluation: every figure
// and table from Section VI, plus the Section IV discussion numbers and
// a fault-injection validation study.
//
// Usage:
//
//	flamebench -exp all                 # everything (slow)
//	flamebench -exp fig15 -quick        # geomean comparison on a subset
//	flamebench -exp fig12,table2,hw     # analytic experiments (fast)
//	flamebench -exp fig13 -benchmarks Triad,SGEMM,LUD
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"flame/internal/bench"
	"flame/internal/harness"
)

// experiments are the valid -exp names, in the order they run.
var experiments = []string{
	"fig12", "table2", "fig13", "fig15", "fig16", "fig17", "fig18", "fig19",
	"discussion", "hw", "ckptplace", "occupancy", "falsepos", "masking",
	"ablation", "inject", "telemetry", "sampling", "all",
}

// parseExps returns the set of experiments a comma-separated -exp list
// names, rejecting any name that is not an experiment.
func parseExps(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experiments, e) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", e, strings.Join(experiments, ","))
		}
		want[e] = true
	}
	return want, nil
}

func main() {
	exp := flag.String("exp", "all", "experiments: "+strings.Join(experiments, ","))
	quick := flag.Bool("quick", false, "use an 8-benchmark subset")
	benchList := flag.String("benchmarks", "", "comma-separated benchmark subset")
	sms := flag.Int("sms", 0, "override SM count (smaller = faster)")
	wcdl := flag.Int("wcdl", 20, "sensor WCDL")
	injectRuns := flag.Int("inject-runs", 5, "injection trials per benchmark")
	flag.Parse()
	want, err := parseExps(*exp)
	if err != nil {
		fail("%v", err)
	}

	cfg := harness.Default()
	cfg.Out = os.Stdout
	cfg.WCDL = *wcdl
	if *sms > 0 {
		cfg.Arch.NumSMs = *sms
	}
	switch {
	case *benchList != "":
		cfg.Benchmarks = nil
		for _, name := range strings.Split(*benchList, ",") {
			b, err := bench.ByName(strings.TrimSpace(name))
			if err != nil {
				fail("%v", err)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	case *quick:
		cfg.Benchmarks = nil
		for _, name := range harness.QuickBenchmarks {
			b, err := bench.ByName(name)
			if err != nil {
				fail("%v", err)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}

	all := want["all"]
	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		if err := f(); err != nil {
			fail("%s: %v", name, err)
		}
	}

	run("fig12", func() error { harness.Figure12(cfg); return nil })
	run("table2", func() error { _, err := harness.TableII(cfg); return err })
	var matrix *harness.OverheadMatrix
	run("fig13", func() error {
		m, err := harness.Figure13_14(cfg)
		matrix = m
		return err
	})
	run("fig15", func() error {
		if matrix == nil {
			m, err := harness.Figure13_14(cfg)
			if err != nil {
				return err
			}
			matrix = m
		}
		harness.Figure15(cfg, matrix)
		return nil
	})
	run("fig16", func() error { _, err := harness.Figure16(cfg); return err })
	run("fig17", func() error { _, err := harness.Figure17(cfg); return err })
	run("fig18", func() error { _, err := harness.Figure18(cfg); return err })
	run("fig19", func() error { _, err := harness.Figure19(cfg); return err })
	run("discussion", func() error { _, err := harness.DiscussionStats(cfg); return err })
	run("hw", func() error { harness.HardwareCostFor(cfg); return nil })
	run("ckptplace", func() error { _, err := harness.CheckpointPlacementStudy(cfg); return err })
	run("occupancy", func() error { _, err := harness.OccupancyStudy(cfg); return err })
	run("falsepos", func() error { _, err := harness.FalsePositiveStudy(cfg, 5); return err })
	run("masking", func() error {
		_, err := harness.MaskingStudy(cfg, *injectRuns, 7)
		return err
	})
	run("ablation", func() error { _, err := harness.SectionSkipAblation(cfg); return err })
	run("inject", func() error {
		rep, err := harness.InjectionStudy(cfg, *injectRuns, 2024)
		if err != nil {
			return err
		}
		verdict, err := harness.InjectionVerdict(rep)
		if err != nil {
			return err
		}
		fmt.Println(verdict)
		return nil
	})
	run("telemetry", func() error { _, err := harness.TelemetryStudy(cfg); return err })
	run("sampling", func() error { _, err := harness.SamplingStudy(cfg, harness.SamplingBudget); return err })
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flamebench: "+format+"\n", args...)
	os.Exit(1)
}
