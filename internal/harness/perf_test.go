package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendPerfHistory pins the BENCH_sim.json history semantics:
// fresh files start a one-element array, repeated runs append in order,
// a legacy single-object file is migrated rather than clobbered, and a
// corrupt file errors instead of silently erasing the trajectory.
func TestAppendPerfHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	mk := func(commit string, rate float64) *PerfReport {
		r := &PerfReport{Timestamp: "2026-08-05T00:00:00Z", SimCyclesPerSec: rate}
		r.Host.Commit = commit
		return r
	}
	read := func() []PerfReport {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var hist []PerfReport
		if err := json.Unmarshal(data, &hist); err != nil {
			t.Fatalf("history is not a JSON array: %v\n%s", err, data)
		}
		return hist
	}

	if err := AppendPerfHistory(path, mk("aaa", 1)); err != nil {
		t.Fatal(err)
	}
	if h := read(); len(h) != 1 || h[0].Host.Commit != "aaa" {
		t.Fatalf("after first append: %+v", h)
	}
	if err := AppendPerfHistory(path, mk("bbb", 2)); err != nil {
		t.Fatal(err)
	}
	if h := read(); len(h) != 2 || h[0].Host.Commit != "aaa" || h[1].Host.Commit != "bbb" {
		t.Fatalf("after second append: %+v", h)
	}

	t.Run("legacy-migration", func(t *testing.T) {
		legacy := filepath.Join(t.TempDir(), "BENCH_sim.json")
		one, err := json.MarshalIndent(mk("old", 9), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(legacy, one, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := AppendPerfHistory(legacy, mk("new", 10)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(legacy)
		if err != nil {
			t.Fatal(err)
		}
		var hist []PerfReport
		if err := json.Unmarshal(data, &hist); err != nil {
			t.Fatalf("migrated file is not an array: %v", err)
		}
		if len(hist) != 2 || hist[0].Host.Commit != "old" || hist[1].Host.Commit != "new" {
			t.Fatalf("migration lost entries: %+v", hist)
		}
	})

	t.Run("corrupt-file-errors", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "BENCH_sim.json")
		if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := AppendPerfHistory(bad, mk("x", 1)); err == nil {
			t.Fatal("append over corrupt history should fail")
		}
	})
}

// TestCheckPerfRegression pins the CI throughput guard: a >20% trials/s
// drop against the most recent same-host entry fails; smaller drops,
// foreign-host predecessors, and histories with nothing to compare pass.
func TestCheckPerfRegression(t *testing.T) {
	mk := func(cpus int, rate float64) *PerfReport {
		r := &PerfReport{Timestamp: "2026-08-05T00:00:00Z", TrialsPerSec: rate}
		r.Host.OS, r.Host.Arch, r.Host.CPUs, r.Host.GoVer = "linux", "amd64", cpus, "go1.24.0"
		r.Host.Commit = "abc1234"
		return r
	}
	write := func(t *testing.T, reps ...*PerfReport) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_sim.json")
		for _, r := range reps {
			if err := AppendPerfHistory(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}

	if err := CheckPerfRegression(write(t, mk(4, 100), mk(4, 85)), 0); err != nil {
		t.Fatalf("15%% drop within tolerance failed: %v", err)
	}
	if err := CheckPerfRegression(write(t, mk(4, 100), mk(4, 75)), 0); err == nil {
		t.Fatal("25% drop on the same host key should fail")
	}
	// The comparison partner is the most recent same-host entry, not the
	// oldest: recovering after a slow entry passes.
	if err := CheckPerfRegression(write(t, mk(4, 100), mk(4, 85), mk(4, 80)), 0); err != nil {
		t.Fatalf("7%% drop vs most recent entry failed: %v", err)
	}
	// A foreign host key in between must be skipped, not compared.
	if err := CheckPerfRegression(write(t, mk(4, 100), mk(32, 1000), mk(4, 75)), 0); err == nil {
		t.Fatal("25% drop vs the same-host predecessor should fail despite a foreign entry in between")
	}
	if err := CheckPerfRegression(write(t, mk(32, 1000), mk(4, 10)), 0); err != nil {
		t.Fatalf("no same-host predecessor should pass vacuously: %v", err)
	}
	if err := CheckPerfRegression(write(t, mk(4, 100)), 0); err != nil {
		t.Fatalf("single-entry history should pass vacuously: %v", err)
	}

	// A vacuous pass says so; a real comparison names its baseline.
	t.Run("vacuous-reported", func(t *testing.T) {
		const msg = "harness: perf-guard vacuous: no same-host baseline\n"
		for _, tc := range []struct {
			name string
			path string
			want string
		}{
			{"foreign-host", write(t, mk(32, 1000), mk(4, 10)), msg},
			{"single-entry", write(t, mk(4, 100)), msg},
			{"nothing-measured", write(t, mk(4, 0)), msg},
			{"same-host", write(t, mk(4, 100), mk(4, 95)), "harness: perf-guard baseline: commit abc1234 @ 2026-08-05T00:00:00Z, 100.0 trials/s (head: 95.0 trials/s)\n"},
		} {
			var log bytes.Buffer
			if err := checkPerfRegression(tc.path, 0, &log); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if log.String() != tc.want {
				t.Errorf("%s: reported %q, want %q", tc.name, log.String(), tc.want)
			}
		}
	})

	t.Run("legacy-single-object", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "BENCH_sim.json")
		data, err := json.MarshalIndent(mk(1, 200), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckPerfRegression(path, 0); err != nil {
			t.Fatalf("legacy single-object history should pass: %v", err)
		}
	})

	// Legacy array entries without a timestamp/commit cannot anchor the
	// guard: they are skipped in favour of the next attributable entry,
	// and a history with only legacy predecessors passes vacuously.
	t.Run("legacy-baseline-skipped", func(t *testing.T) {
		legacy := mk(4, 1000)
		legacy.Timestamp, legacy.Host.Commit = "", ""
		if err := CheckPerfRegression(write(t, legacy, mk(4, 10)), 0); err != nil {
			t.Fatalf("unattributable legacy baseline should be skipped: %v", err)
		}
		if err := CheckPerfRegression(write(t, mk(4, 100), legacy, mk(4, 10)), 0); err == nil {
			t.Fatal("90% drop vs the attributable baseline behind a legacy entry should fail")
		}
	})

	// Sampling-only entries (no trials_per_sec) are neither the head nor
	// a baseline: the guard compares across them.
	t.Run("sampling-entry-skipped", func(t *testing.T) {
		sampling := mk(4, 0)
		if err := CheckPerfRegression(write(t, mk(4, 100), sampling, mk(4, 10)), 0); err == nil {
			t.Fatal("90% drop should fail despite a sampling-only entry in between")
		}
		if err := CheckPerfRegression(write(t, mk(4, 100), mk(4, 95), sampling), 0); err != nil {
			t.Fatalf("sampling-only head should compare the last measured entries: %v", err)
		}
	})
}

// TestPerfReportOmitsUnmeasured pins the history format of a
// sampling-only entry: no zeroed throughput fields and no restore-bound
// section, only what the study measured.
func TestPerfReportOmitsUnmeasured(t *testing.T) {
	rep := &PerfReport{Timestamp: "2026-08-05T00:00:00Z", Sampling: []SamplingBenchPerf{{Benchmark: "Triad"}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"sim_cycles_per_sec", "trials_per_sec", "allocs_per_trial", "benchmark", "restore_bound"} {
		if _, ok := fields[k]; ok {
			t.Errorf("sampling-only entry writes %q: %s", k, data)
		}
	}
	if _, ok := fields["sampling"]; !ok {
		t.Errorf("sampling-only entry lost its study: %s", data)
	}
}
