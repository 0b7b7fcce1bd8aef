package vet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
)

// avfPinFile pins the Predict blocks of the CI AVF gate pairs at the
// default architecture: the trace-ACE census and the liveness-class
// counts that depend on where a strike may land. A change meant to move
// them regenerates the file with
// UPDATE_GRID_PINS=1 go test ./internal/vet -run TestAVFPredictionsPinned
// and the diff then shows which blocks moved.
var avfPinFile = filepath.Join("testdata", "avf_predict.txt")

// TestAVFPredictionsPinned diffs the predictions of {Triad, Histogram,
// SRAD, GUPS} × {renaming, flame} against the pin file.
func TestAVFPredictionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight golden executions at 15 SMs")
	}
	var blocks []string
	for _, name := range []string{"Triad", "Histogram", "SRAD", "GUPS"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Scheme{core.Renaming, core.SensorRenaming} {
			p, err := Predict(gpu.GTX480(), b.Spec(), core.Options{Scheme: s, WCDL: 20, ExtendRegions: true}, flame.DataSlice)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, p.String())
		}
	}
	body := strings.Join(blocks, "\n")
	if os.Getenv("UPDATE_GRID_PINS") != "" {
		if err := os.WriteFile(avfPinFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(avfPinFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GRID_PINS=1)", err)
	}
	if string(want) != body {
		t.Errorf("AVF predictions moved:\ngot:\n%s\nwant:\n%s", body, want)
	}
}
