package campaign_test

import (
	"math"
	"testing"

	"flame/internal/bench"
	"flame/internal/campaign"
	"flame/internal/campaignflag"
	"flame/internal/core"
	"flame/internal/dist"
	"flame/internal/gpu"
)

// TestRunValidation: every entry point that accepts a campaign — the
// uniform grid, the stratified sampler, the distributed service's wire
// description and the coordinator built from it — rejects the same
// bad configs through Config.Validate, before any golden run.
func TestRunValidation(t *testing.T) {
	triad, err := bench.ByName("Triad")
	if err != nil {
		t.Fatal(err)
	}
	valid := func() campaign.Config {
		arch := gpu.GTX480()
		arch.NumSMs = 2
		return campaign.Config{
			Arch: arch, Opt: core.FlameOptions(),
			Specs: []*core.KernelSpec{triad.Spec()}, Trials: 4, Seed: 1,
		}
	}
	entries := []struct {
		name       string
		stratified bool // the stratified checks apply
		run        func(t *testing.T, cfg campaign.Config) error
	}{
		{"Run", false, func(t *testing.T, cfg campaign.Config) error {
			_, err := campaign.Run(cfg)
			return err
		}},
		{"RunStratified", true, func(t *testing.T, cfg campaign.Config) error {
			_, err := campaign.RunStratified(cfg)
			return err
		}},
		{"CampaignInfo.Config", false, func(t *testing.T, cfg campaign.Config) error {
			_, err := campaignflag.Resolve(cfg.Identity())
			return err
		}},
		{"NewCoordinator", false, func(t *testing.T, cfg campaign.Config) error {
			_, err := dist.NewCoordinator(dist.CoordConfig{
				Info: cfg.Identity(), StateDir: t.TempDir(),
			})
			return err
		}},
	}
	cases := []struct {
		name       string
		stratified bool
		mutate     func(*campaign.Config)
	}{
		{"no workloads", false, func(c *campaign.Config) { c.Specs = nil }},
		{"duplicate workload", false, func(c *campaign.Config) { c.Specs = append(c.Specs, triad.Spec()) }},
		{"zero trials", false, func(c *campaign.Config) { c.Trials = 0 }},
		{"negative trials", false, func(c *campaign.Config) { c.Trials = -3 }},
		{"ci target 0.5", false, func(c *campaign.Config) { c.CITarget = 0.5 }},
		{"negative ci target", false, func(c *campaign.Config) { c.CITarget = -0.1 }},
		{"NaN ci target", false, func(c *campaign.Config) { c.CITarget = math.NaN() }},
		{"multi-strike", true, func(c *campaign.Config) { c.StrikesPerTrial = 2 }},
		{"skip", true, func(c *campaign.Config) { c.Skip = func(string, int) bool { return false } }},
	}
	for _, e := range entries {
		for _, c := range cases {
			if c.stratified && !e.stratified {
				continue
			}
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				cfg := valid()
				c.mutate(&cfg)
				if err := e.run(t, cfg); err == nil {
					t.Fatalf("%s accepted a config with %s", e.name, c.name)
				}
			})
		}
	}
	// The wire description of a good campaign still round-trips.
	cfg := valid()
	if _, err := campaignflag.Resolve(cfg.Identity()); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
}
