package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/gpu"
)

// injectPinFile pins the quick-subset masking and injection tables at 4
// SMs and 5 trials per benchmark: the rows `flamebench -exp
// masking,inject -quick -sms 4` prints, with flamebench's seeds. A
// change meant to move them regenerates the file with
// UPDATE_GRID_PINS=1 go test ./internal/harness -run TestInjectionTablesPinned
// and the diff then shows which rows moved.
var injectPinFile = filepath.Join("testdata", "inject_4sm.tsv")

const injectPinHeader = "study\tbench\ttrials\tinjected\tmasked\trecovered\tsdc\tdue\thang"

// benchConfig returns a 4-SM config over the named benchmarks.
func benchConfig(t *testing.T, names ...string) Config {
	t.Helper()
	arch := gpu.GTX480()
	arch.NumSMs = 4
	cfg := Config{Arch: arch, WCDL: 20}
	for _, name := range names {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, b)
	}
	return cfg
}

// injectionReports runs the masking and the injection study on cfg with
// flamebench's seeds.
func injectionReports(t *testing.T, cfg Config, trials int) (masking, inject *campaign.Report) {
	t.Helper()
	masking, err := MaskingStudy(cfg, trials, 7)
	if err != nil {
		t.Fatal(err)
	}
	inject, err = InjectionStudy(cfg, trials, 2024)
	if err != nil {
		t.Fatal(err)
	}
	return masking, inject
}

// TestInjectionTablesPinned diffs the quick-subset masking and
// injection rows against the checked-in table.
func TestInjectionTablesPinned(t *testing.T) {
	masking, inject := injectionReports(t, benchConfig(t, QuickBenchmarks...), 5)
	var got []string
	for _, s := range []struct {
		study string
		rep   *campaign.Report
	}{{"masking", masking}, {"inject", inject}} {
		for _, b := range s.rep.Benchmarks {
			got = append(got, fmt.Sprintf("%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
				s.study, b.Benchmark, b.Trials, b.Injected, b.Masked, b.Recovered, b.SDC, b.DUE, b.Hang))
		}
	}
	body := injectPinHeader + "\n" + strings.Join(got, "\n") + "\n"
	if os.Getenv("UPDATE_GRID_PINS") != "" {
		if err := os.WriteFile(injectPinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(injectPinFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GRID_PINS=1)", err)
	}
	if string(want) != body {
		t.Errorf("masking/injection rows moved:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestInjectionRowsIndependentOfSuite: a benchmark's masking and
// injection rows depend only on the benchmark, not on which other
// benchmarks run or in what order.
func TestInjectionRowsIndependentOfSuite(t *testing.T) {
	rows := func(names ...string) map[string]campaign.BenchReport {
		masking, inject := injectionReports(t, benchConfig(t, names...), 6)
		out := map[string]campaign.BenchReport{}
		for i, name := range names {
			out["masking "+name] = masking.Benchmarks[i]
			out["inject "+name] = inject.Benchmarks[i]
		}
		return out
	}
	fwd := rows("AES", "CS", "NW")
	rev := rows("NW", "CS", "AES")
	for key, f := range fwd {
		if r := rev[key]; !reflect.DeepEqual(f, r) {
			t.Errorf("%s depends on benchmark order:\nAES,CS,NW: %s\nNW,CS,AES: %s", key, &f, &r)
		}
	}
}
