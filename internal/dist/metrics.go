package dist

import (
	"net/http"
	"sort"
	"time"

	"flame/internal/campaign"
	"flame/internal/core"
	"flame/internal/stats"
)

// The coordinator's /metrics endpoint exposes the fleet's live state in
// the Prometheus text format (hand-rolled in prom.go — no client
// library). Every counter here is derived from state the coordinator
// rebuilds from disk on restart (the live reports refolded from the
// shard streams for trial outcomes and propagation, the checkpoint for
// lease and failure counts), so counters stay monotone across a
// coordinator kill/restart — the chaos smoke test asserts exactly that.

// tallies maps each outcome name to its trial count in b, omitting
// outcomes no trial had.
func tallies(b *campaign.BenchReport) map[string]int {
	m := map[string]int{}
	for o, n := range map[core.Outcome]int{
		core.OutcomeNoInjection: b.NoInjection, core.OutcomeMasked: b.Masked,
		core.OutcomeRecovered: b.Recovered, core.OutcomeSDC: b.SDC, core.OutcomeDUE: b.DUE,
		core.OutcomeHang: b.Hang, core.OutcomeInternal: b.Internal,
	} {
		if n > 0 {
			m[o.String()] = n
		}
	}
	return m
}

// renderMetricsLocked builds the metrics page from the coordinator's
// current state. elapsed is passed in (rather than read from the clock)
// so the golden test can pin the exact output bytes.
func (c *Coordinator) renderMetricsLocked(elapsed float64) []byte {
	p := newProm()
	info := c.cc.Info
	trace := "0"
	if info.Trace {
		trace = "1"
	}
	p.Gauge("flame_campaign_info", "Campaign identity; the value is always 1.", 1,
		"arch", info.Arch.Name, "scheme", info.Scheme, "model", info.Model, "trace", trace)
	p.Gauge("flame_coordinator_epoch", "Coordinator start count for this state dir.", float64(c.epoch))
	p.Gauge("flame_coordinator_uptime_seconds", "Seconds since this coordinator process started.", elapsed)

	var done, pending, leased, doneShards, quarantined, cancelled, retries int
	for _, sc := range c.shards {
		done += len(sc.seen)
		retries += sc.fails
		switch sc.state {
		case statePending:
			pending++
		case stateLeased:
			leased++
		case stateDone:
			doneShards++
		case stateQuarantined:
			quarantined++
		case stateCancelled:
			cancelled++
		}
	}
	p.Gauge("flame_campaign_trials", "Planned trials across all benchmarks.",
		float64(len(c.cfg.Specs)*c.cfg.Trials))
	p.Counter("flame_campaign_trials_done_total",
		"Distinct trials persisted to shard streams; rebuilt from disk on restart, so monotone across coordinator restarts.",
		float64(done))
	if elapsed > 0 {
		p.Gauge("flame_campaign_trials_per_second", "Persisted-trial throughput since coordinator start.",
			float64(done)/elapsed)
	}

	fleet := c.fleetLocked()
	counts := tallies(fleet)
	outcomes := make([]string, 0, len(counts))
	for o := range counts {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		p.Counter("flame_campaign_outcome_total", "Persisted trials by outcome.",
			float64(counts[o]), "outcome", o)
	}
	p.Gauge("flame_campaign_coverage", "Live coverage over injected trials (masked+recovered fraction).", fleet.Coverage)
	p.Gauge("flame_campaign_coverage_lo", "Wilson 95% lower bound of live coverage.", fleet.CoverageLo)
	p.Gauge("flame_campaign_coverage_hi", "Wilson 95% upper bound of live coverage.", fleet.CoverageHi)

	for _, sp := range c.cfg.Specs {
		br := c.live[sp.Name]
		p.Counter("flame_bench_injected_total", "Injected trials persisted, by benchmark.",
			float64(br.Injected), "bench", sp.Name)
		p.Counter("flame_bench_sdc_total", "SDC trials persisted, by benchmark.",
			float64(br.SDC), "bench", sp.Name)
		p.Counter("flame_bench_due_total", "DUE trials persisted, by benchmark.",
			float64(br.DUE), "bench", sp.Name)
	}
	for _, sp := range c.cfg.Specs {
		if br := c.live[sp.Name]; br.Injected > 0 {
			sLo, sHi := stats.Wilson95(br.SDC, br.Injected)
			dLo, dHi := stats.Wilson95(br.DUE, br.Injected)
			p.Gauge("flame_bench_ci_halfwidth", "Live Wilson 95% half-width of the per-benchmark rate (the ci_target convergence signal).",
				(sHi-sLo)/2, "bench", sp.Name, "rate", "sdc")
			p.Gauge("flame_bench_ci_halfwidth", "Live Wilson 95% half-width of the per-benchmark rate (the ci_target convergence signal).",
				(dHi-dLo)/2, "bench", sp.Name, "rate", "due")
		}
	}
	for _, sp := range c.cfg.Specs {
		v := 0.0
		if c.stopped[sp.Name] {
			v = 1
		}
		p.Gauge("flame_bench_early_stopped", "1 once the benchmark's CIs converged under ci_target.", v, "bench", sp.Name)
	}
	for _, sp := range c.cfg.Specs {
		if reason := c.live[sp.Name].PruneDisabled; reason != "" {
			p.Gauge("flame_prune_disabled",
				"1 when pruning was requested but the benchmark's index failed a soundness gate and fell back to full simulation.",
				1, "bench", sp.Name, "reason", reason)
		}
	}

	for _, st := range []struct {
		name string
		n    int
	}{
		{statePending, pending}, {stateLeased, leased}, {stateDone, doneShards},
		{stateQuarantined, quarantined}, {stateCancelled, cancelled},
	} {
		p.Gauge("flame_shards", "Shards by lifecycle state.", float64(st.n), "state", st.name)
	}
	p.Counter("flame_shard_retries_total",
		"Failed leases across all shards (expiries and short completions); persisted in the checkpoint.",
		float64(retries))
	p.Counter("flame_leases_granted_total", "Leases handed out; persisted in the checkpoint.", float64(c.leaseSeq))
	p.Gauge("flame_leases_active", "Leases currently outstanding.", float64(len(c.leases)))

	var live, banned int
	for _, reason := range c.workers {
		if reason == "" {
			live++
		} else {
			banned++
		}
	}
	p.Gauge("flame_workers", "Workers that passed the golden vote and are not banned.", float64(live))
	p.Gauge("flame_workers_banned", "Workers rejected by the golden replica vote.", float64(banned))

	if pr := fleet.Propagation; pr != nil {
		p.Counter("flame_propagation_traced_total", "Persisted trials carrying a propagation record.",
			float64(pr.Traced))
		p.Counter("flame_propagation_store_reached_total", "Traced trials whose strike's taint reached a global store.",
			float64(pr.StoreReached))
		p.Log2Histogram("flame_propagation_cycles", "Strike-to-first-corrupted-store distance in cycles.",
			pr.DepthHist)
		for _, fc := range pr.Fingerprints {
			p.Counter("flame_propagation_fingerprint_total", "SDC trials by corruption fingerprint (top 8).",
				float64(fc.Count), "fingerprint", fc.Fingerprint)
		}
		p.Gauge("flame_propagation_fingerprints_distinct", "Distinct SDC fingerprints observed.",
			float64(pr.DistinctFingerprints))
	}
	return p.Bytes()
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	page := c.renderMetricsLocked(time.Since(c.started).Seconds())
	c.mu.Unlock()
	w.Header().Set("Content-Type", promContentType)
	w.Write(page)
}
