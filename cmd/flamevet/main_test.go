package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flame/internal/bench"
	"flame/internal/core"
	"flame/internal/flame"
	"flame/internal/gpu"
	"flame/internal/vet"
)

const tinyKernel = `
    mov r0, %tid.x
    shl r1, r0, 2
    ld.param r2, [0]
    add r3, r2, r1
    ld.global r4, [r3]
    add r5, r4, 1
    st.global [r3], r5
    exit
`

// TestOracleNeedsBench: the oracle launches benchmark inputs, so -oracle
// on an -in file is a usage error, not a silently skipped pass.
func TestOracleNeedsBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.fasm")
	if err := os.WriteFile(path, []byte(tinyKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := runCaptured(t, "-in", path, "-scheme", "flame", "-q"); got != 0 {
		t.Fatalf("-in %s: exit %d, want 0", path, got)
	}
	if got, _ := runCaptured(t, "-in", path, "-scheme", "flame", "-oracle", "-q"); got != 2 {
		t.Errorf("-in FILE -oracle: exit %d, want 2", got)
	}
}

// TestAVFPredictionOnly: -avf -avf-trials 0 prints vet.Predict's block
// for every benchmark×scheme pair, blank-line separated, and nothing
// else.
func TestAVFPredictionOnly(t *testing.T) {
	var want []string
	for _, name := range []string{"Triad", "Histogram"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Scheme{core.Renaming, core.SensorRenaming} {
			p, err := vet.Predict(gpu.GTX480(), b.Spec(), core.Options{Scheme: s, WCDL: 20, ExtendRegions: true}, flame.DataSlice)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p.String())
		}
	}
	code, out := runCaptured(t, "-avf", "-avf-trials", "0", "-bench", "Triad,Histogram", "-scheme", "renaming,flame")
	if code != 0 || out != strings.Join(want, "\n") {
		t.Errorf("exit %d, output:\n%s\nwant exit 0, output:\n%s", code, out, strings.Join(want, "\n"))
	}
	for _, bad := range [][]string{
		{"-avf", "-avf-trials", "-1", "-bench", "Triad"},
		{"-avf", "-avf-trials", "0", "-bench", "Triad", "-json", "-"},
	} {
		if code, _ := runCaptured(t, bad...); code != 2 {
			t.Errorf("%v: exit %d, want 2", bad, code)
		}
	}
}

// runCaptured runs flamevet on args and returns its exit status and
// standard output.
func runCaptured(t *testing.T, args ...string) (int, string) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
