package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"flame/internal/campaignflag"
	"flame/internal/dist"
)

// TestDefaultCampaignInfoResumes: the campaign description flameserve
// derives from its default flags must marshal to exactly the bytes of
// testdata/checkpoint.json's info — a checkpoint written by flameserve
// when it still parsed its campaign flags itself. The coordinator
// resumes a state dir only when these bytes match, so state dirs from
// that flameserve must keep resuming.
func TestDefaultCampaignInfoResumes(t *testing.T) {
	fs := flag.NewFlagSet("flameserve", flag.ContinueOnError)
	cf := campaignflag.Bind(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(dist.InfoFromConfig(&cfg))
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile("testdata/checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	var ck struct {
		Info dist.CampaignInfo `json:"info"`
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ck.Info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("default campaign info changed:\n got %s\nwant %s", got, want)
	}
}
