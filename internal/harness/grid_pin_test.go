package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/gpu"
)

// gridPinFile pins every Figure 13/14 cell at 4 SMs: the headline
// counters plus a SHA-256 of the cell's full gpu.Stats. A simulator
// change that moves any number must regenerate it explicitly with
// UPDATE_GRID_PINS=1 go test ./internal/harness -run TestFigureGridPinned
// and the diff then shows which cells moved.
var gridPinFile = filepath.Join("testdata", "grid_4sm.tsv")

const gridPinHeader = "bench\tscheme\tcycles\tissued\tstall\tbarrier_waits\trbq_wait\tl1_hits\tl1_misses\tl2_hits\tl2_misses\tstats_sha256"

// gridPinRows runs the Figure 13/14 grid (every benchmark under Baseline
// and the eight schemes) on cfg and formats one pin row per cell.
func gridPinRows(t *testing.T, cfg Config) []string {
	t.Helper()
	var cells []cell
	for _, b := range cfg.Benchmarks {
		cells = append(cells, cell{arch: cfg.Arch, bench: b, opt: core.Options{Scheme: core.Baseline}})
	}
	cells = append(cells, gridCells(&cfg)...)
	res, err := runCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(cells))
	for i, c := range cells {
		rows[i] = c.bench.Name + "\t" + c.opt.Scheme.FlagName() + "\t" + statsPinCols(&res[i])
	}
	return rows
}

// statsPinCols formats a run's pinned columns: the headline counters
// and a SHA-256 of the full gpu.Stats.
func statsPinCols(st *gpu.Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
	return fmt.Sprintf("%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s",
		st.Cycles, st.Issued, st.StallCycles, st.BarrierWaits, st.RBQWaitCycles,
		st.L1Hits, st.L1Misses, st.L2Hits, st.L2Misses, hex.EncodeToString(sum[:]))
}

// TestFigureGridPinned diffs the Figure 13/14 grid at 4 SMs against the
// checked-in table, cell by cell. Under -race only a light subset runs:
// the comparison needs no race checking.
func TestFigureGridPinned(t *testing.T) {
	cfg := Default()
	cfg.Arch.NumSMs = 4
	update := os.Getenv("UPDATE_GRID_PINS") != ""
	if raceBuild && !update {
		cfg.Benchmarks = nil
		for _, name := range []string{"Triad", "Histogram", "BFS", "PF"} {
			b, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}
	got := gridPinRows(t, cfg)
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		body := gridPinHeader + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(gridPinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGridPins(t)
	if len(want) != len(Default().Benchmarks)*(len(gridSchemes)+1) {
		t.Fatalf("%s has %d rows; want the full 34 x 9 grid", gridPinFile, len(want))
	}
	for _, row := range got {
		key := pinKey(row)
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no pinned row", key)
			continue
		}
		if w != row {
			t.Errorf("cell moved:\n got  %s\n want %s", row, w)
		}
	}
}

// readGridPins loads the pin table keyed by "bench\tscheme".
func readGridPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(gridPinFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GRID_PINS=1)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == gridPinHeader || line == "" {
			continue
		}
		out[pinKey(line)] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// pinKey returns a pin row's "bench\tscheme" prefix.
func pinKey(row string) string {
	f := strings.SplitN(row, "\t", 3)
	return f[0] + "\t" + f[1]
}
