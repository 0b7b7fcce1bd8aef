package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/stats"
)

// sweepPinFile pins the quick-subset sensitivity sweeps at 4 SMs: every
// cell of Figure 17 (WCDL), Figure 18 (GTO, OLD, LRR, 2-Level), Figure
// 19 (architectures, each at its own SM count) and the occupancy study,
// baselines included, as the headline counters plus a SHA-256 of the
// cell's gpu.Stats, and each point's geomean as `flamebench -exp
// fig17,fig18,fig19,occupancy -quick -sms 4` computes it. It also pins
// the Section IV numbers: each benchmark's false-positive study row
// (`-exp falsepos`, 5 spurious recoveries) and the discussion values
// (`-exp discussion`). A change
// meant to move them regenerates the file with
// UPDATE_GRID_PINS=1 go test ./internal/harness -run TestSweepsPinned
// and the diff then shows which cells moved.
var sweepPinFile = filepath.Join("testdata", "sweeps_4sm.tsv")

const sweepPinHeader = "sweep\tpoint\tbench\tscheme\tcycles\tissued\tstall\tbarrier_waits\trbq_wait\tl1_hits\tl1_misses\tl2_hits\tl2_misses\tstats_sha256"

// pinnedSweeps are the sweeps sweepPinFile covers: each one's points
// and the function flamebench runs for it.
var pinnedSweeps = []struct {
	name   string
	points func(*Config) ([]string, []cell)
	run    func(Config) (stats.Series, error)
}{
	{"fig17", wcdlPoints, Figure17},
	{"fig18", schedulerPoints, Figure18},
	{"fig19", archPoints, Figure19},
	{"occupancy", occupancyPoints, OccupancyStudy},
}

// sweepPinRows runs every pinned sweep on cfg and formats its pin
// rows: one per simulated cell, each baseline under the first point
// that needs it, then with geomeans set one "geomean" row per point
// holding the sweep function's value. The false-positive rows follow,
// one per benchmark, and with geomeans set the discussion values, which
// aggregate over every benchmark.
func sweepPinRows(t *testing.T, cfg Config, geomeans bool) []string {
	t.Helper()
	n := len(cfg.Benchmarks)
	var rows []string
	for _, sw := range pinnedSweeps {
		labels, points := sw.points(&cfg)
		batch, at, base := withBaselines(sweepCells(&cfg, points))
		res, err := runCells(batch)
		if err != nil {
			t.Fatal(err)
		}
		done := make([]bool, len(batch))
		for i := range at {
			for _, j := range []int{base[i], at[i]} {
				if done[j] {
					continue
				}
				done[j] = true
				c := batch[j]
				rows = append(rows, strings.Join([]string{sw.name, labels[i/n], c.bench.Name,
					c.opt.Scheme.FlagName(), statsPinCols(&res[j])}, "\t"))
			}
		}
		if !geomeans {
			continue
		}
		s, err := sw.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range s.Values {
			rows = append(rows, fmt.Sprintf("%s\t%s\tgeomean\t%s\t%.6f",
				sw.name, s.Labels[k], points[k].opt.Scheme.FlagName(), v))
		}
	}
	scheme := cfg.flameOptions().Scheme.FlagName()
	fps, err := FalsePositiveStudy(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fps {
		rows = append(rows, fmt.Sprintf("falsepos\tnfp=5\t%s\t%s\t%.6f\t%d",
			r.Benchmark, scheme, r.Overhead, r.NumFP))
	}
	if !geomeans {
		return rows
	}
	d, err := DiscussionStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"raw_errors_per_day", d.RawErrorsPerDay},
		{"false_pos_per_day", d.FalsePosPerDay},
		{"avg_dyn_region_insts", d.AvgDynRegionInsts},
	} {
		rows = append(rows, fmt.Sprintf("discussion\t%s\tall\t%s\t%.6f", v.name, scheme, v.v))
	}
	return rows
}

// TestSweepsPinned diffs the quick-subset sweeps at 4 SMs against the
// checked-in table, row by row. Under -race only two benchmarks' cells
// run and the geomeans are skipped: the comparison needs no race
// checking.
func TestSweepsPinned(t *testing.T) {
	names := QuickBenchmarks
	update := os.Getenv("UPDATE_GRID_PINS") != ""
	full := !raceBuild || update
	if !full {
		names = []string{"Triad", "Histogram"}
	}
	got := sweepPinRows(t, benchConfig(t, names...), full)
	if update {
		body := sweepPinHeader + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(sweepPinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(sweepPinFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GRID_PINS=1)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:] {
		want[sweepPinKey(line)] = line
	}
	if full && len(got) != len(want) {
		t.Errorf("%s has %d rows; the sweeps produce %d", sweepPinFile, len(want), len(got))
	}
	for _, row := range got {
		key := sweepPinKey(row)
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no pinned row", key)
		} else if w != row {
			t.Errorf("row moved:\n got  %s\n want %s", row, w)
		}
	}
}

// sweepPinKey returns a pin row's "sweep\tpoint\tbench\tscheme" prefix.
func sweepPinKey(row string) string {
	f := strings.SplitN(row, "\t", 5)
	return strings.Join(f[:4], "\t")
}
