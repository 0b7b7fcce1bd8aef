package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flame/internal/bench"
	"flame/internal/gpu"
	"flame/internal/par"
)

// fresh returns a copy of a registered benchmark that has never been
// assembled: copying the registry entry itself would carry its cached
// program along.
func fresh(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &bench.Benchmark{
		Name: b.Name, Suite: b.Suite, Description: b.Description,
		Src: b.Src, Grid: b.Grid, Block: b.Block, Params: b.Params, Steps: b.Steps,
		MemBytes: b.MemBytes, Setup: b.Setup, Validate: b.Validate,
		ExtensionCandidate: b.ExtensionCandidate,
	}
}

// broken returns a never-assembled copy of a benchmark, renamed, whose
// output validation always fails.
func broken(t *testing.T, name string) *bench.Benchmark {
	b := fresh(t, name)
	b.Name = "Broken" + name
	b.Validate = func([]uint32) error { return errors.New("deliberately broken") }
	return b
}

// withProcs runs f with GOMAXPROCS set to n, the executor's worker count.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// experiments lists every harness experiment that runs its simulations
// through the parallel executor.
var experiments = []struct {
	name string
	run  func(Config) (any, error)
}{
	{"Figure13_14", func(c Config) (any, error) {
		m, err := Figure13_14(c)
		if err == nil {
			Figure15(c, m)
		}
		return m, err
	}},
	{"Figure16", func(c Config) (any, error) { return Figure16(c) }},
	{"Figure17", func(c Config) (any, error) { return Figure17(c) }},
	{"Figure18", func(c Config) (any, error) { return Figure18(c) }},
	{"Figure19", func(c Config) (any, error) { return Figure19(c) }},
	{"DiscussionStats", func(c Config) (any, error) { return DiscussionStats(c) }},
	{"SectionSkipAblation", func(c Config) (any, error) { return SectionSkipAblation(c) }},
	{"OccupancyStudy", func(c Config) (any, error) { return OccupancyStudy(c) }},
	{"CheckpointPlacementStudy", func(c Config) (any, error) { return CheckpointPlacementStudy(c) }},
	{"MaskingStudy", func(c Config) (any, error) { return MaskingStudy(c, 2, 11) }},
	{"InjectionStudy", func(c Config) (any, error) { return InjectionStudy(c, 2, 7) }},
	{"FalsePositiveStudy", func(c Config) (any, error) { return FalsePositiveStudy(c, 2) }},
}

// runAt runs an experiment with n workers and returns its value, the
// text it printed and its error.
func runAt(n int, cfg Config, run func(Config) (any, error)) (v any, out string, err error) {
	var sb strings.Builder
	cfg.Out = &sb
	withProcs(n, func() { v, err = run(cfg) })
	return v, sb.String(), err
}

// TestExperimentsWorkerCountInvariant requires every migrated
// experiment to return the same values and print the same text with one
// worker and with four.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	cfg := quick(t)
	cfg.Arch.NumSMs = 2
	cfg.Benchmarks = []*bench.Benchmark{fresh(t, "Triad"), fresh(t, "SGEMM"), fresh(t, "Histogram")}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			v1, out1, err := runAt(1, cfg, e.run)
			if err != nil {
				t.Fatal(err)
			}
			v4, out4, err := runAt(4, cfg, e.run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v1, v4) {
				t.Errorf("values differ:\n1 worker:  %+v\n4 workers: %+v", v1, v4)
			}
			if out1 != out4 {
				t.Errorf("printed text differs:\n1 worker:\n%s\n4 workers:\n%s", out1, out4)
			}
			if out1 == "" {
				t.Error("nothing printed")
			}
		})
	}
}

// TestExperimentsFirstErrorInSerialOrder puts two failing benchmarks
// among passing ones. The earlier is slow and the later fast, so with
// several workers the later one usually fails first in wall time; the
// error returned must still be the one the serial loop meets first.
func TestExperimentsFirstErrorInSerialOrder(t *testing.T) {
	cfg := quick(t)
	cfg.Arch.NumSMs = 2
	cfg.Benchmarks = []*bench.Benchmark{
		fresh(t, "Triad"), broken(t, "LUD"), fresh(t, "BS"), broken(t, "Triad"), fresh(t, "Histogram"),
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			_, _, serial := runAt(1, cfg, e.run)
			if serial == nil || !strings.Contains(serial.Error(), "BrokenLUD") {
				t.Fatalf("serial error %v, want one naming BrokenLUD", serial)
			}
			for _, n := range []int{2, 4} {
				if _, _, err := runAt(n, cfg, e.run); err == nil || err.Error() != serial.Error() {
					t.Fatalf("%d workers: error %v, serial %v", n, err, serial)
				}
			}
		})
	}
}

// TestParallelFirstError checks the executor's contract directly: the
// smallest failing index wins however late it fails, and every index
// below it runs.
func TestParallelFirstError(t *testing.T) {
	withProcs(4, func() {
		var ran [8]atomic.Bool
		err := par.For(64, func(i int) error {
			if i < len(ran) {
				ran[i].Store(true)
			}
			switch i {
			case 5:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("cell %d", i)
			case 6, 7:
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 5" {
			t.Fatalf("error %v, want cell 5", err)
		}
		for i := 0; i < 5; i++ {
			if !ran[i].Load() {
				t.Errorf("cell %d below the first failure did not run", i)
			}
		}
	})
}

// TestFigure13_14FreshBenchmarksConcurrent runs the grid on four workers
// over benchmarks whose programs were never assembled, including the
// multi-kernel ones. Benchmark.Prog assembles lazily without
// synchronisation, so under -race this fails unless the executor
// resolves every spec before fanning out.
func TestFigure13_14FreshBenchmarksConcurrent(t *testing.T) {
	arch := gpu.GTX480()
	arch.NumSMs = 1
	var suite []*bench.Benchmark
	for _, name := range []string{"Triad", "BP", "SRAD", "Kmeans", "Histogram", "LUD"} {
		suite = append(suite, fresh(t, name))
	}
	withProcs(4, func() {
		m, err := Figure13_14(Config{Arch: arch, WCDL: 20, Benchmarks: suite})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range m.Norm {
			for j, v := range row {
				if !(v > 0) {
					t.Errorf("%s/%s: normalized time %v", m.Benchmarks[j], m.Schemes[i], v)
				}
			}
		}
	})
}
