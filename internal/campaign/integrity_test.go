package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// streamOf runs a small campaign and returns its event stream and the
// live report's JSON.
func streamOf(t *testing.T) ([]byte, []byte) {
	t.Helper()
	var stream bytes.Buffer
	cfg := testConfig(t, []string{"Triad", "Histogram"}, 6, 4)
	cfg.Events = &stream
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stream.Bytes(), want
}

// TestReplayIntegrityTornWrite: a stream whose final line was torn
// mid-record (the canonical crash artifact) replays leniently — the
// torn line is counted malformed, the trial it carried counted missing
// — while the strict Replay refuses it.
func TestReplayIntegrityTornWrite(t *testing.T) {
	stream, _ := streamOf(t)
	lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
	// Find the last trial line and tear it in half.
	last := -1
	for i, l := range lines {
		if bytes.Contains(l, []byte(`"event":"trial"`)) {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("no trial line in stream")
	}
	torn := append([]byte{}, bytes.Join(lines[:last], []byte("\n"))...)
	torn = append(torn, '\n')
	torn = append(torn, lines[last][:len(lines[last])/2]...) // no trailing newline either

	rep, ig, err := ReplayIntegrity(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if ig.Malformed != 1 || ig.Clean() {
		t.Fatalf("torn stream integrity: %s", ig)
	}
	if !strings.Contains(ig.FirstMalformed, "line") {
		t.Fatalf("FirstMalformed = %q", ig.FirstMalformed)
	}
	if ig.Missing != 1 {
		t.Fatalf("missing = %d, want 1 (the torn trial)", ig.Missing)
	}
	if rep.Fleet.Trials != 11 {
		t.Fatalf("replayed %d trials, want 11", rep.Fleet.Trials)
	}
	if _, err := Replay(bytes.NewReader(torn)); err == nil {
		t.Fatal("strict Replay accepted a torn stream")
	}
}

// TestReplayIntegrityGarbageAndDuplicates: interleaved binary garbage is
// skipped and counted; duplicated trial lines (a re-leased shard's
// residue) are deduplicated keeping the first; the rebuilt report is
// byte-identical to the clean stream's.
func TestReplayIntegrityGarbageAndDuplicates(t *testing.T) {
	stream, want := streamOf(t)
	var dirty bytes.Buffer
	n := 0
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		dirty.Write(line)
		if bytes.Contains(line, []byte(`"event":"trial"`)) {
			if n%3 == 0 {
				dirty.WriteString("\x00\x01 not json at all {{{\n")
			}
			if n%2 == 0 {
				dirty.Write(line) // duplicate the trial
			}
			n++
		}
	}

	rep, ig, err := ReplayIntegrity(&dirty)
	if err != nil {
		t.Fatal(err)
	}
	if ig.Malformed == 0 || ig.Duplicates == 0 || ig.Missing != 0 {
		t.Fatalf("integrity: %s", ig)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dirty replay differs from live report:\n-live:\n%s\n-replayed:\n%s", want, got)
	}
}

// TestReplayIntegrityDropped: trial events naming an unknown benchmark,
// an unknown outcome, or an out-of-range index are dropped and counted,
// never folded.
func TestReplayIntegrityDropped(t *testing.T) {
	stream := `{"event":"campaign_start","arch":{"Name":"GTX480"},"scheme":"baseline","model":"data","benchmarks":["x"],"trials_per_benchmark":2}
{"event":"trial","benchmark":"x","trial":0,"outcome":"masked"}
{"event":"trial","benchmark":"y","trial":0,"outcome":"masked"}
{"event":"trial","benchmark":"x","trial":7,"outcome":"masked"}
{"event":"trial","benchmark":"x","trial":-1,"outcome":"masked"}
{"event":"trial","benchmark":"x","trial":1,"outcome":"not-an-outcome"}
`
	rep, ig, err := ReplayIntegrity(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if ig.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (%s)", ig.Dropped, ig)
	}
	if rep.Fleet.Trials != 1 || ig.Missing != 1 || ig.MissingByBench["x"] != 1 {
		t.Fatalf("trials=%d integrity=%s", rep.Fleet.Trials, ig)
	}
	if _, err := Replay(strings.NewReader(stream)); err == nil {
		t.Fatal("strict Replay accepted dropped records")
	}
}
