package dist

import "net/http"

// The live dashboard is one self-contained HTML page (no external
// assets, no build step) served at GET /dashboard. Everything it shows
// comes from the two read-only endpoints the coordinator already serves: /v1/status (JSON)
// and /metrics (Prometheus text) — the page polls both every two
// seconds and renders the shard map, per-benchmark CI convergence, and
// the propagation-fingerprint summary client-side. Keeping the server
// side to a constant string means the dashboard can never perturb the
// campaign: it holds no locks and touches no coordinator state.

func handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>flame campaign</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.2em auto; max-width: 72em; padding: 0 1em;
         background: #111418; color: #d8dee4; }
  h1 { font-size: 1.1em; } h2 { font-size: 0.95em; margin: 1.4em 0 0.4em; color: #9fb3c8; }
  .bar { height: 10px; background: #2a3038; border-radius: 5px; overflow: hidden; }
  .bar > div { height: 100%; background: #4c9e57; transition: width 0.5s; }
  .grid { display: flex; flex-wrap: wrap; gap: 3px; }
  .cell { width: 16px; height: 16px; border-radius: 3px; background: #2a3038; }
  .cell.pending     { background: #3b4352; }
  .cell.leased      { background: #c9a227; }
  .cell.done        { background: #4c9e57; }
  .cell.quarantined { background: #c84c4c; }
  .cell.cancelled   { background: #6f5fa8; }
  table { border-collapse: collapse; }
  td, th { padding: 2px 10px 2px 0; text-align: left; font-weight: normal; }
  th { color: #7d8590; }
  .muted { color: #7d8590; } .bad { color: #e5534b; } .ok { color: #57ab5a; }
  #err { color: #e5534b; }
</style>
</head>
<body>
<h1>flame campaign <span id="state" class="muted"></span></h1>
<div id="err"></div>
<div class="bar"><div id="prog" style="width:0"></div></div>
<div class="muted" id="progtext"></div>

<h2>shards <span class="muted">(hover for detail)</span></h2>
<div class="grid" id="shards"></div>

<h2>outcomes</h2>
<table id="tallies"></table>

<h2>benchmark convergence <span class="muted">(Wilson 95% half-widths)</span></h2>
<table id="benches"></table>

<h2>propagation <span class="muted">(traced campaigns only)</span></h2>
<table id="prop"></table>

<h2>workers</h2>
<div id="workers"></div>

<script>
"use strict";
// parseMetrics turns Prometheus text into {name -> [{labels, value}]}.
function parseMetrics(text) {
  const out = {};
  for (const line of text.split("\n")) {
    if (!line || line.startsWith("#")) continue;
    const m = line.match(/^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (.*)$/);
    if (!m) continue;
    const labels = {};
    if (m[3]) for (const kv of m[3].match(/[a-zA-Z_]+="(?:[^"\\]|\\.)*"/g) || []) {
      const i = kv.indexOf("=");
      labels[kv.slice(0, i)] = kv.slice(i + 2, -1).replace(/\\(.)/g, "$1");
    }
    (out[m[1]] = out[m[1]] || []).push({ labels, value: parseFloat(m[4]) });
  }
  return out;
}
const fmt = (v, d) => Number(v).toFixed(d === undefined ? 0 : d);
const esc = s => String(s).replace(/[&<>"]/g, c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));

function renderStatus(st) {
  const done = st.done_trials, total = st.total_trials;
  document.getElementById("prog").style.width = total ? (100 * done / total) + "%" : "0";
  document.getElementById("progtext").textContent =
    done + " / " + total + " trials · " + fmt(st.elapsed_sec) + "s elapsed" +
    " · coverage " + fmt(100 * st.coverage, 2) + "% [" +
    fmt(100 * st.coverage_lo, 2) + ", " + fmt(100 * st.coverage_hi, 2) + "]";
  document.getElementById("state").textContent =
    st.complete ? "— complete" : st.degraded ? "— DEGRADED" : "— running";

  const grid = document.getElementById("shards");
  grid.textContent = "";
  for (const s of st.shards || []) {
    const c = document.createElement("div");
    c.className = "cell " + s.state;
    let tip = "shard " + s.shard.id + ": " + s.shard.bench +
      "[" + s.shard.lo + "," + s.shard.hi + ") — " + s.state +
      ", " + s.done + "/" + (s.shard.hi - s.shard.lo) + " on disk";
    if (s.worker) tip += ", worker " + s.worker;
    if (s.lease_age_sec) tip += ", lease age " + fmt(s.lease_age_sec, 1) + "s";
    if (s.retries) tip += ", retries " + s.retries;
    c.title = tip;
    grid.appendChild(c);
  }

  let rows = "";
  for (const o of Object.keys(st.tallies || {}).sort())
    rows += "<tr><td>" + esc(o) + "</td><td>" + st.tallies[o] + "</td></tr>";
  document.getElementById("tallies").innerHTML = rows || "<tr><td class=muted>no trials yet</td></tr>";

  let wk = (st.workers || []).map(esc).join(", ") || "<span class=muted>none</span>";
  if ((st.banned_workers || []).length)
    wk += ' · <span class="bad">banned: ' + st.banned_workers.map(esc).join(", ") + "</span>";
  document.getElementById("workers").innerHTML = wk;
}

function renderMetrics(ms) {
  const by = (fam, key) => {
    const m = {};
    for (const s of ms[fam] || []) m[s.labels[key] + "|" + (s.labels.rate || "")] = s.value;
    return m;
  };
  const inj = by("flame_bench_injected_total", "bench"),
        sdc = by("flame_bench_sdc_total", "bench"),
        due = by("flame_bench_due_total", "bench"),
        ci  = by("flame_bench_ci_halfwidth", "bench"),
        stop = by("flame_bench_early_stopped", "bench");
  let rows = "<tr><th>bench</th><th>injected</th><th>sdc</th><th>due</th>" +
             "<th>±sdc</th><th>±due</th><th></th></tr>";
  for (const k of Object.keys(inj).sort()) {
    const b = k.split("|")[0];
    rows += "<tr><td>" + esc(b) + "</td><td>" + inj[k] + "</td><td>" + (sdc[k] || 0) +
      "</td><td>" + (due[k] || 0) + "</td><td>" +
      (ci[b + "|sdc"] !== undefined ? fmt(ci[b + "|sdc"], 4) : "—") + "</td><td>" +
      (ci[b + "|due"] !== undefined ? fmt(ci[b + "|due"], 4) : "—") + "</td><td>" +
      (stop[k] ? '<span class="ok">converged</span>' : "") + "</td></tr>";
  }
  document.getElementById("benches").innerHTML = rows;

  const traced = (ms["flame_propagation_traced_total"] || [])[0],
        reached = (ms["flame_propagation_store_reached_total"] || [])[0],
        distinct = (ms["flame_propagation_fingerprints_distinct"] || [])[0];
  let prows = "";
  if (traced) {
    prows += "<tr><td>traced trials</td><td>" + traced.value + "</td></tr>" +
      "<tr><td>reached a store</td><td>" + (reached ? reached.value : 0) + "</td></tr>" +
      "<tr><td>distinct fingerprints</td><td>" + (distinct ? distinct.value : 0) + "</td></tr>";
    for (const s of ms["flame_propagation_fingerprint_total"] || [])
      prows += '<tr><td class="muted">' + esc(s.labels.fingerprint) + "</td><td>" + s.value + "</td></tr>";
  } else {
    prows = '<tr><td class="muted">not a traced campaign (run with -fingerprint)</td></tr>';
  }
  document.getElementById("prop").innerHTML = prows;
}

async function tick() {
  try {
    const [st, mt] = await Promise.all([
      fetch("/v1/status").then(r => r.json()),
      fetch("/metrics").then(r => r.text()),
    ]);
    renderStatus(st);
    renderMetrics(parseMetrics(mt));
    document.getElementById("err").textContent = "";
  } catch (e) {
    document.getElementById("err").textContent = "poll failed: " + e;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
