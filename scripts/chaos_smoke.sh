#!/usr/bin/env bash
# Chaos smoke test for the distributed campaign service.
#
# Proves the fault-tolerance contract end to end with real processes:
#   1. Run the reference campaign single-process (flameinject) -> report A.
#   2. Run the same campaign distributed: flameserve + 4 flameworkers.
#      Mid-campaign, kill -9 the only running worker while it holds a
#      lease (the lease must expire: no other worker is alive to finish
#      the campaign first), then kill -9 the coordinator itself, start
#      the other three workers during the outage, and restart the
#      coordinator on the same state dir (it must resume from
#      checkpoint + shard streams while the workers retry through it).
#   3. Assert the merged distributed report is byte-identical to A.
#   4. Observability: sample /metrics before the coordinator murder and
#      after the restart — flame_campaign_trials_done_total must be
#      monotone (the restarted coordinator rebuilds its counters from
#      the shard streams, never resets them) — and snapshot the live
#      dashboard HTML as an artifact.
#   5. A second, traced campaign (-fingerprint, baseline scheme under
#      the full-site model so SDCs occur): the merged report must again
#      match single-process byte-for-byte, and /metrics must carry the
#      propagation histogram and fingerprint tallies.
#   6. A pruned campaign (-prune): flameserve + 2 flameworkers must
#      merge to the flameinject -prune report byte-for-byte, pruned
#      counters included.
#
# Artifacts (state dir, logs, reports, metrics, dashboard.html) land in
# $OUT (default: a temp dir).
set -u -o pipefail

BENCHES="${BENCHES:-Triad,Histogram,BFS}"
TRIALS="${TRIALS:-12}"
SEED="${SEED:-7}"
ADDR="${ADDR:-127.0.0.1:18077}"
URL="http://$ADDR"
OUT="${OUT:-$(mktemp -d)}"
STATE="$OUT/state"
mkdir -p "$OUT"

log() { echo "chaos_smoke: $*" >&2; }
die() { log "FAIL: $*"; exit 1; }

cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null
    wait 2>/dev/null
}
trap cleanup EXIT

log "building binaries"
go build -o "$OUT/flameinject" ./cmd/flameinject || die "build flameinject"
go build -o "$OUT/flameserve" ./cmd/flameserve || die "build flameserve"
go build -o "$OUT/flameworker" ./cmd/flameworker || die "build flameworker"

log "reference single-process campaign"
"$OUT/flameinject" -bench "$BENCHES" -trials "$TRIALS" -seed "$SEED" \
    -json "$OUT/single.json" >"$OUT/single.txt" 2>"$OUT/single.log"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "flameinject exited $rc"
[ -s "$OUT/single.json" ] || die "no single-process report"

start_coordinator() {
    "$OUT/flameserve" -addr "$ADDR" -state "$STATE" \
        -bench "$BENCHES" -trials "$TRIALS" -seed "$SEED" \
        -shard-size 2 -lease-ttl 3s \
        -json "$OUT/dist.json" >"$OUT/dist.txt" 2>>"$OUT/serve.log" &
    SERVE_PID=$!
}

# metric_value NAME FILE -> the (label-less) sample value, or empty.
metric_value() {
    sed -n "s/^$1 \([0-9.]*\)$/\1/p" "$2"
}

start_worker() { # $1 = name
    "$OUT/flameworker" -url "$URL" -name "$1" -flush 1 2>>"$OUT/worker-$1.log" &
    eval "WPID_$1=$!"
}

log "starting coordinator + worker w1"
start_coordinator
start_worker w1

# Freeze w1 once it has streamed some trials and holds a lease. A
# frozen worker can neither finish nor hand back its shard, so the
# lease can only end by expiring, however fast the host is. w1 runs on
# between polls, so a stop that lands between shards is undone.
held=""
for i in $(seq 1 1000); do
    kill -0 "$SERVE_PID" 2>/dev/null || die "coordinator died early (see serve.log)"
    kill -STOP "$WPID_w1" 2>/dev/null
    status=$(curl -fsS "$URL/v1/status" 2>/dev/null)
    done_trials=$(echo "$status" | sed -n 's/.*"done_trials":\([0-9]*\).*/\1/p')
    if [ "${done_trials:-0}" -ge 1 ] \
        && echo "$status" | grep -Eq '"state":"leased",("retries":[0-9]+,)?"worker":"w1"'; then
        held=1
        break
    fi
    kill -CONT "$WPID_w1" 2>/dev/null
    sleep 0.02
done
[ "${done_trials:-0}" -ge 1 ] || die "no trials streamed after 20s"
[ -n "$held" ] || die "w1 never held a lease while stopped"

log "kill -9 worker w1 mid-shard ($done_trials trials streamed so far)"
kill -9 "$WPID_w1" 2>/dev/null

# No worker is alive, so the murdered worker's lease must expire.
for i in $(seq 1 100); do
    grep -q "expired" "$OUT/serve.log" && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.2
done
grep -q "expired" "$OUT/serve.log" || die "no lease expiry recorded — w1's death went unnoticed"

# Observability snapshot before the murder: the Prometheus page and the
# live dashboard.
curl -fsS "$URL/metrics" >"$OUT/metrics-before.txt" \
    || die "GET /metrics failed on the live coordinator"
done_before=$(metric_value flame_campaign_trials_done_total "$OUT/metrics-before.txt")
[ -n "$done_before" ] || die "flame_campaign_trials_done_total missing from /metrics"
grep -q 'flame_shards{state="' "$OUT/metrics-before.txt" || die "shard-state gauges missing from /metrics"
curl -fsS "$URL/dashboard" >"$OUT/dashboard.html" || die "GET /dashboard failed"
grep -q "<html" "$OUT/dashboard.html" || die "dashboard snapshot is not HTML"

log "kill -9 the coordinator, start w2-w4 during the outage, restart it from its state dir"
kill -9 "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null
for w in w2 w3 w4; do start_worker "$w"; done
sleep 1
start_coordinator

# Counter monotonicity across the restart: the rebuilt
# flame_campaign_trials_done_total must never be below the pre-kill
# sample (it is re-derived from the shard streams, which survived).
for i in $(seq 1 100); do
    if curl -fsS "$URL/metrics" >"$OUT/metrics-after.txt" 2>/dev/null; then break; fi
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
[ -s "$OUT/metrics-after.txt" ] || die "restarted coordinator never served /metrics"
done_after=$(metric_value flame_campaign_trials_done_total "$OUT/metrics-after.txt")
[ -n "$done_after" ] || die "flame_campaign_trials_done_total missing after restart"
[ "${done_after%.*}" -ge "${done_before%.*}" ] \
    || die "trials_done_total went backwards across restart: $done_before -> $done_after"
log "trials_done_total monotone across restart: $done_before -> $done_after"

# The workers retry through the outage and finish the campaign.
wait "$SERVE_PID"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "restarted coordinator exited $rc (see serve.log)"
[ -s "$OUT/dist.json" ] || die "no distributed report"
grep -q "resume" "$OUT/serve.log" || die "restarted coordinator did not resume from state dir"

if cmp -s "$OUT/single.json" "$OUT/dist.json"; then
    log "PASS: distributed report is byte-identical to the single-process report"
else
    diff "$OUT/single.json" "$OUT/dist.json" >&2
    die "distributed report differs from single-process report"
fi

# The workers must drain cleanly (exit 0) once told Done.
for w in w2 w3 w4; do
    eval 'pid=$WPID_'"$w"
    wait "$pid"
    wrc=$?
    [ $wrc -eq 0 ] || die "worker $w exited $wrc (see worker-$w.log)"
done

# The re-lease after w1's murder must be visible in the coordinator log.
grep -q "expired" "$OUT/serve.log" || die "no lease expiry recorded — w1's death went unnoticed"

# --- Traced campaign: propagation fingerprints end to end ------------
# Baseline scheme under the full-site model so strikes become SDCs and
# carry corruption fingerprints. The traced distributed report must
# still merge byte-identical to single-process, and /metrics must carry
# the propagation histogram + fingerprint tallies while trials stream.
FP_BENCHES="${FP_BENCHES:-Triad,Histogram}"
log "traced campaign (-fingerprint, baseline scheme, full-site model)"
"$OUT/flameinject" -bench "$FP_BENCHES" -trials "$TRIALS" -seed "$SEED" \
    -scheme baseline -model full -fingerprint \
    -json "$OUT/single-fp.json" >"$OUT/single-fp.txt" 2>>"$OUT/single.log"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "traced flameinject exited $rc"

"$OUT/flameserve" -addr "$ADDR" -state "$OUT/state-fp" \
    -bench "$FP_BENCHES" -trials "$TRIALS" -seed "$SEED" \
    -scheme baseline -model full -fingerprint -shard-size 2 \
    -json "$OUT/dist-fp.json" >"$OUT/dist-fp.txt" 2>>"$OUT/serve.log" &
FP_PID=$!
start_worker fp

# Sample /metrics until a page carries fingerprint tallies. The
# coordinator exits as soon as the campaign completes, so the worker is
# frozen around each sample: the campaign cannot finish while a page is
# fetched, however fast the host is.
while kill -0 "$FP_PID" 2>/dev/null; do
    kill -STOP "$WPID_fp" 2>/dev/null
    if curl -fsS "$URL/metrics" >"$OUT/metrics-fp.tmp" 2>/dev/null \
        && grep -q "^flame_propagation_fingerprint_total" "$OUT/metrics-fp.tmp"; then
        mv "$OUT/metrics-fp.tmp" "$OUT/metrics-fp.txt"
        kill -CONT "$WPID_fp" 2>/dev/null
        break
    fi
    kill -CONT "$WPID_fp" 2>/dev/null
    sleep 0.02
done
wait "$FP_PID"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "traced coordinator exited $rc (see serve.log)"
eval 'wait $WPID_fp' || die "traced worker failed (see worker-fp.log)"

cmp -s "$OUT/single-fp.json" "$OUT/dist-fp.json" \
    || die "traced distributed report differs from single-process"
grep -q '"propagation"' "$OUT/dist-fp.json" \
    || die "traced report carries no propagation section"
[ -s "$OUT/metrics-fp.txt" ] || die "never sampled propagation tallies from /metrics"
grep -q "^flame_propagation_cycles_bucket" "$OUT/metrics-fp.txt" \
    || die "propagation depth histogram missing from /metrics"
grep -q "^flame_propagation_fingerprint_total" "$OUT/metrics-fp.txt" \
    || die "fingerprint tallies missing from /metrics"
log "PASS: traced report byte-identical; propagation metrics exported"

# --- Pruned campaign: the pruner through the shipped binaries --------
# The workers classify provably-masked trials without simulation; the
# merged report, pruned_* counters included, must match flameinject
# -prune on the same benchmarks and seed.
PRUNE_BENCHES="${PRUNE_BENCHES:-Triad,SRAD}"
log "pruned campaign (-prune): flameserve + 2 flameworkers vs flameinject"
"$OUT/flameinject" -bench "$PRUNE_BENCHES" -trials "$TRIALS" -seed "$SEED" -prune \
    -json "$OUT/single-prune.json" >"$OUT/single-prune.txt" 2>>"$OUT/single.log"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "pruned flameinject exited $rc"

"$OUT/flameserve" -addr "$ADDR" -state "$OUT/state-prune" \
    -bench "$PRUNE_BENCHES" -trials "$TRIALS" -seed "$SEED" -prune -shard-size 2 \
    -json "$OUT/dist-prune.json" >"$OUT/dist-prune.txt" 2>>"$OUT/serve.log" &
PRUNE_PID=$!
start_worker p1
start_worker p2
wait "$PRUNE_PID"
rc=$?
[ $rc -eq 0 ] || [ $rc -eq 2 ] || die "pruned coordinator exited $rc (see serve.log)"
for w in p1 p2; do
    eval 'wait $WPID_'"$w" || die "pruned worker $w failed (see worker-$w.log)"
done

cmp -s "$OUT/single-prune.json" "$OUT/dist-prune.json" \
    || die "pruned distributed report differs from single-process"
grep -q '"pruned_' "$OUT/dist-prune.json" \
    || die "pruned report carries no pruned_* counters"
log "PASS: pruned distributed report byte-identical"

log "artifacts in $OUT"
log "OK"
