package campaign

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// withProcs runs f with GOMAXPROCS set to n, the set-up fan-out's
// worker count.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// setupLines returns the event lines written before the first trial:
// the set-up's own lines, which carry no timings.
func setupLines(events []byte) []byte {
	if i := bytes.Index(events, []byte(`{"event":"trial_start"`)); i >= 0 {
		return events[:i]
	}
	return events
}

// TestSetupWorkerCountInvariant: golden runs, prune indexes and strata
// are prepared on GOMAXPROCS workers, yet the uniform and the
// stratified campaign (both pruning) write the same report and the same
// set-up event lines with one worker as with four.
func TestSetupWorkerCountInvariant(t *testing.T) {
	names := []string{"Triad", "SRAD", "Histogram", "BFS", "PF"}
	for _, stratify := range []bool{false, true} {
		run := func(procs int) (report, setup []byte) {
			cfg := testConfig(t, names, 6, 2)
			cfg.Prune = true
			cfg.Stratify = stratify
			cfg.Pilot = 2
			var ev bytes.Buffer
			cfg.Events = &ev
			var rep *Report
			var err error
			withProcs(procs, func() { rep, err = Run(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			if report, err = rep.JSON(); err != nil {
				t.Fatal(err)
			}
			return report, setupLines(ev.Bytes())
		}
		rep1, set1 := run(1)
		rep4, set4 := run(4)
		if !bytes.Equal(rep1, rep4) {
			t.Errorf("stratify=%v: reports differ:\n1 worker:\n%s\n4 workers:\n%s", stratify, rep1, rep4)
		}
		if !bytes.Equal(set1, set4) {
			t.Errorf("stratify=%v: set-up lines differ:\n1 worker:\n%s\n4 workers:\n%s", stratify, set1, set4)
		}
		if n := bytes.Count(set1, []byte(`"event":"golden"`)); n != len(names) {
			t.Errorf("stratify=%v: %d golden lines, want %d", stratify, n, len(names))
		}
	}
}

// TestSetupFirstErrorInSpecOrder puts two failing benchmarks among
// passing ones, the earlier slow and the later fast. The error returned
// must be the one the serial set-up meets first, at any worker count.
func TestSetupFirstErrorInSpecOrder(t *testing.T) {
	for _, stratify := range []bool{false, true} {
		cfg := testConfig(t, []string{"Triad", "LUD", "BFS", "Triad", "Histogram"}, 2, 2)
		cfg.Prune = true
		cfg.Stratify = stratify
		for _, i := range []int{1, 3} {
			s := *cfg.Specs[i]
			s.Name = "Broken" + s.Name
			s.Validate = func([]uint32) error { return errors.New("deliberately broken") }
			cfg.Specs[i] = &s
		}
		var serial error
		withProcs(1, func() { _, serial = Run(cfg) })
		if serial == nil || !strings.Contains(serial.Error(), "BrokenLUD") {
			t.Fatalf("stratify=%v: serial error %v, want one naming BrokenLUD", stratify, serial)
		}
		for _, n := range []int{2, 4} {
			var err error
			withProcs(n, func() { _, err = Run(cfg) })
			if err == nil || err.Error() != serial.Error() {
				t.Fatalf("stratify=%v, %d workers: error %v, serial %v", stratify, n, err, serial)
			}
		}
	}
}
