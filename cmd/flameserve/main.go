// Command flameserve is the distributed-campaign coordinator: it
// shards a fault-injection campaign's trial grid, leases shards to
// flameworker processes over HTTP, survives worker deaths (lease
// expiry + re-lease with backoff, poison-shard quarantine) and its own
// (checkpoint + per-shard event streams in -state), and merges the
// returned streams into a report byte-identical to the single-process
// flameinject run of the same configuration.
//
// Usage:
//
//	flameserve -addr :8077 -state ./campaign-state -trials 1000
//	flameserve -trials 1000 -prune -ci-target 0.02 -shard-size 50
//	flameworker -url http://host:8077        # on each machine
//
// The campaign flags (-bench, -suite, -scheme, -trials, -seed, -model,
// -prune, -ci-target, -json, ...) are flameinject's; -ci-target
// cancels a benchmark's pending shards once its SDC and DUE Wilson 95%
// half-widths reach the target.
//
// Exit codes: 0 complete; 2 complete but uncovered outcomes under the
// paper's fault model; 3 interrupted or degraded (resumable: run again
// with the same -state).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flame/internal/campaignflag"
	"flame/internal/dist"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	state := flag.String("state", "flameserve-state", "state directory (checkpoint + shard streams); reuse to resume")
	shardSize := flag.Int("shard-size", 25, "max trials per shard")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "lease deadline without a heartbeat (workers renew every lease-ttl/3)")
	quarantine := flag.Int("quarantine-after", 3, "quarantine a shard after this many failed leases")
	cf := campaignflag.Bind(flag.CommandLine)
	flag.Parse()

	cfg, err := cf.Config()
	if err != nil {
		fail("%v", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fr, err := dist.Serve(ctx, dist.ServeConfig{
		Addr: *addr,
		Coord: dist.CoordConfig{
			Info: cfg.Identity(), StateDir: *state, ShardSize: *shardSize,
			LeaseTTL: *leaseTTL, QuarantineAfter: *quarantine,
			Logf: logf,
		},
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fail("%v", err)
	}
	if fr == nil {
		fail("no report")
	}

	fmt.Print(fr.Report)
	if !fr.Integrity.Clean() || fr.Integrity.Missing > 0 {
		fmt.Printf("stream integrity: %s\n", fr.Integrity)
	}
	for _, s := range fr.Quarantined {
		fmt.Printf("QUARANTINED %s: excluded after repeated lease failures\n", s)
	}
	if len(fr.EarlyStopped) > 0 {
		fmt.Printf("early stop: %s converged under ci_target %g (%d shards cancelled)\n",
			strings.Join(fr.EarlyStopped, ", "), cfg.CITarget, len(fr.Cancelled))
	}
	if interrupted {
		fmt.Printf("interrupted: partial report; resume with the same -state %s\n", *state)
	}
	if err := cf.WriteJSON(fr.Report); err != nil {
		fail("%v", err)
	}

	switch {
	case interrupted || !fr.Complete:
		os.Exit(3)
	case campaignflag.Uncovered(&cfg, fr.Report):
		os.Exit(2)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flameserve: "+format+"\n", args...)
}

func fail(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
