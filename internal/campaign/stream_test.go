package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flame/internal/core"
)

// TestStreamReplayMatchesReport is the streaming contract: replaying a
// finished JSONL event stream rebuilds the exact Report the campaign
// returned — byte-identical JSON — at any worker count, even though the
// workers interleave trial events nondeterministically.
func TestStreamReplayMatchesReport(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[parallel], func(t *testing.T) {
			var stream bytes.Buffer
			cfg := testConfig(t, []string{"Triad", "Histogram"}, 8, parallel)
			cfg.Events = &stream

			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}

			replayed, err := Replay(bytes.NewReader(stream.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("replayed report differs:\n-live:\n%s\n-replayed:\n%s", want, got)
			}
		})
	}
}

// TestStreamShape checks the stream's event grammar: every line is a
// standalone JSON object, the stream opens with campaign_start, carries
// one golden per workload and exactly one trial per (benchmark, trial)
// pair, every trial has a matching trial_start, progress events report
// a plausible throughput, and campaign_done's tallies match the fleet.
func TestStreamShape(t *testing.T) {
	var stream bytes.Buffer
	names := []string{"Triad", "Histogram"}
	const trials = 8
	cfg := testConfig(t, names, trials, 4)
	cfg.Events = &stream

	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	trialSeen := map[string]bool{}
	startSeen := map[string]bool{}
	var first, last map[string]any
	var progresses []map[string]any
	for i, line := range strings.Split(strings.TrimSpace(stream.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		ev, _ := obj["event"].(string)
		counts[ev]++
		if first == nil {
			first = obj
		}
		last = obj
		key := func() string {
			return obj["benchmark"].(string) + "/" + string(rune('0'+int(obj["trial"].(float64))))
		}
		switch ev {
		case "trial_start":
			startSeen[key()] = true
		case "trial":
			k := key()
			if trialSeen[k] {
				t.Errorf("duplicate trial event %s", k)
			}
			trialSeen[k] = true
		case "progress":
			progresses = append(progresses, obj)
		}
	}

	if first["event"] != "campaign_start" {
		t.Errorf("stream opens with %v, want campaign_start", first["event"])
	}
	if last["event"] != "campaign_done" {
		t.Errorf("stream closes with %v, want campaign_done", last["event"])
	}
	if counts["golden"] != len(names) {
		t.Errorf("%d golden events, want %d", counts["golden"], len(names))
	}
	want := len(names) * trials
	if counts["trial"] != want || counts["trial_start"] != want {
		t.Errorf("trial events %d / trial_start %d, want %d each",
			counts["trial"], counts["trial_start"], want)
	}
	for k := range trialSeen {
		if !startSeen[k] {
			t.Errorf("trial %s has no trial_start", k)
		}
	}
	if len(progresses) == 0 {
		t.Error("no progress events")
	} else {
		final := progresses[len(progresses)-1]
		if int(final["done"].(float64)) != want {
			t.Errorf("final progress done=%v, want %d", final["done"], want)
		}
		if final["trials_per_sec"].(float64) <= 0 {
			t.Errorf("final progress rate %v, want > 0", final["trials_per_sec"])
		}
	}
	if got := int(last["trials"].(float64)); got != rep.Fleet.Trials {
		t.Errorf("campaign_done trials %d, want fleet %d", got, rep.Fleet.Trials)
	}
	if got := last["coverage"].(float64); got != rep.Fleet.Coverage {
		t.Errorf("campaign_done coverage %v, want fleet %v", got, rep.Fleet.Coverage)
	}
}

// TestReplayRejectsGarbage pins the error paths: a stream without
// campaign_start, one with a corrupt line, and one whose header carries
// no campaign identity (the header format before the identity) all fail
// loudly instead of replaying a wrong report; so does resuming the last.
func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader(`{"event":"trial","benchmark":"x","trial":0,"outcome":"masked"}` + "\n")); err == nil {
		t.Error("replay without campaign_start should fail")
	}
	if _, err := Replay(strings.NewReader("{not json\n")); err == nil {
		t.Error("replay of corrupt line should fail")
	}
	if _, err := Replay(strings.NewReader(
		`{"event":"campaign_start","arch":{"Name":"GTX480"},"scheme":"baseline","model":"data","benchmarks":["x"],"trials_per_benchmark":1}` + "\n" +
			`{"event":"trial","benchmark":"x","trial":0,"outcome":"not-an-outcome"}` + "\n")); err == nil {
		t.Error("replay with unknown outcome should fail")
	}
	old := `{"event":"campaign_start","arch":"GTX480","scheme":"Baseline","model":"data","wcdl":20,"seed":1,"trials_per_benchmark":1,"strikes_per_trial":1,"parallel":1,"benchmarks":["Triad"],"total_trials":1}` + "\n" +
		`{"event":"trial","benchmark":"Triad","trial":0,"outcome":"masked"}` + "\n"
	if _, err := Replay(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "no campaign identity") {
		t.Errorf("replay of a header without identity: err %v, want one naming the missing identity", err)
	}
	cfg := testConfig(t, []string{"Triad"}, 1, 1)
	if _, err := cfg.DoneSet(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "no campaign identity") {
		t.Errorf("resume from a header without identity: err %v, want one naming the missing identity", err)
	}
}

// TestDecodeTrial: DecodeTrial inverts MarshalTrialEvent field for
// field, and rejects malformed JSON, other events, unknown outcomes and
// negative trial indices.
func TestDecodeTrial(t *testing.T) {
	want := core.TrialResult{
		Outcome: core.OutcomeSDC, Detected: true, Strikes: 2, ExcludedStrikes: 1,
		Cycles: 977, Pruned: true, Stratum: "k0/s1/alu", Description: "r3 bit 7",
		Prop: &core.PropRecord{StrikeCycle: 5, StoreCycle: 9, Depth: 4, DetectLatency: -1, Fingerprint: "00ff"},
	}
	line, err := MarshalTrialEvent("Triad", 3, &want)
	if err != nil {
		t.Fatal(err)
	}
	bench, trial, got, err := DecodeTrial(line)
	if err != nil || bench != "Triad" || trial != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeTrial = %s, %d, %+v, %v; want Triad, 3, %+v", bench, trial, got, err, want)
	}
	for _, bad := range []string{
		`{"event":"trial","benchmark":"Triad","trial":`,
		`{"event":"golden","benchmark":"Triad","window_cycles":10}`,
		`{"event":"trial","benchmark":"Triad","trial":1,"outcome":"bogus"}`,
		`{"event":"trial","benchmark":"Triad","trial":-1,"outcome":"masked"}`,
	} {
		if _, _, _, err := DecodeTrial([]byte(bad)); err == nil {
			t.Errorf("DecodeTrial accepted %s", bad)
		}
	}
}
