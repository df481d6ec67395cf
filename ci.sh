#!/usr/bin/env bash
# ci.sh — the full local CI pipeline, mirrored by .github/workflows/ci.yml.
# Every leg must pass before a PR merges:
#   build, vet, race-enabled tests, a short fuzz pass over the wire
#   codec, NSEC3 hash, distributed frame reader and checkpoint loader,
#   and the project's own static-analysis suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== test (-race) =="
go test -race ./...

echo "== fuzz (5s per target) =="
go test -run='^$' -fuzz=FuzzDecodeMessage -fuzztime=5s ./internal/dnswire/
go test -run='^$' -fuzz=FuzzDecodeName -fuzztime=5s ./internal/dnswire/
go test -run='^$' -fuzz=FuzzHash -fuzztime=5s ./internal/nsec3/
go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/distsurvey/
# Each checkpoint-load exec touches the filesystem (~1 ms), so the
# default 60 s minimization of a new input would eat the whole
# 5 s budget; 100 minimization runs keep the leg fuzzing.
go test -run='^$' -fuzz=FuzzCheckpointLoad -fuzztime=5s -fuzzminimizetime=100x ./internal/distsurvey/

echo "== bench smoke (sharded survey, lazy + eager, 1 iteration) =="
go test -run='^$' -bench=Survey -benchtime=1x .

echo "== bench smoke (authserver QPS, -benchmem, 1 iteration) =="
# One pass of the serving-path benchmark; the artifact records ns/op and
# allocs/op so a serving-path allocation regression is visible in review
# even when it sneaks past the static analyzers.
go test -run='^$' -bench='^BenchmarkAuthServerQPS$' -benchtime=1x -benchmem . \
  | tee authserver-qps.bench.txt
grep -q 'allocs/op' authserver-qps.bench.txt || {
  echo "authserver QPS bench produced no -benchmem output"; exit 1;
}

echo "== bench smoke (resolver study shards 1/4, -benchmem, 1 iteration) =="
# One pass of the §4.2 study at ScaleDen 1000 per shard count; its world
# answers more queries than the testbed's QueryLog holds, so a return of
# per-query log or proof costs shows up as a slow leg.
go test -run='^$' -bench='^BenchmarkResolverStudySharded$' -benchtime=1x -benchmem .

echo "== metrics smoke (authd -metrics, /healthz + /metrics) =="
SMOKE_DIR=$(mktemp -d)
go build -o "$SMOKE_DIR/authd" ./cmd/authd
"$SMOKE_DIR/authd" -testbed -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/authd.log" 2>&1 &
AUTHD_PID=$!
REPRO_PID=""
cleanup() {
  kill "$AUTHD_PID" 2>/dev/null || true
  [ -n "$REPRO_PID" ] && kill "$REPRO_PID" 2>/dev/null || true
  for p in "${W1_PID:-}" "${W2_PID:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
# authd prints the bound metrics address once the listener is up.
METRICS_URL=""
for _ in $(seq 1 100); do
  METRICS_URL=$(sed -n 's#^authd: metrics on \(http://[^ ]*\)$#\1#p' "$SMOKE_DIR/authd.log")
  [ -n "$METRICS_URL" ] && break
  sleep 0.1
done
[ -n "$METRICS_URL" ] || { echo "authd never exposed /metrics"; cat "$SMOKE_DIR/authd.log"; exit 1; }
curl -fsS "${METRICS_URL%/metrics}/healthz" | grep -qx 'ok'
curl -fsS "$METRICS_URL" | grep -q '^authd_zones '
curl -fsS "$METRICS_URL" | grep -q '^authd_queries_total '
echo "metrics smoke OK ($METRICS_URL)"

echo "== survey metrics smoke (repro -shards 2, lazy signing) =="
go build -o "$SMOKE_DIR/repro" ./cmd/repro
"$SMOKE_DIR/repro" -fig1 -shards 2 -domain-scale 50000 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/repro.log" 2>&1 &
REPRO_PID=$!
SURVEY_URL=""
for _ in $(seq 1 100); do
  SURVEY_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/repro.log")
  [ -n "$SURVEY_URL" ] && break
  sleep 0.1
done
[ -n "$SURVEY_URL" ] || { echo "repro never exposed /metrics"; cat "$SMOKE_DIR/repro.log"; exit 1; }
# Snapshot /metrics until the run exits: the endpoint dies with the
# process, so keep the last good scrape and assert on that.
SNAP="$SMOKE_DIR/metrics.snap"
: > "$SNAP"
while kill -0 "$REPRO_PID" 2>/dev/null; do
  curl -fsS "$SURVEY_URL" > "$SNAP.tmp" 2>/dev/null && mv "$SNAP.tmp" "$SNAP"
  sleep 0.1
done
wait "$REPRO_PID" || { echo "repro exited nonzero"; cat "$SMOKE_DIR/repro.log"; exit 1; }
REPRO_PID=""
grep -q '^survey_zones_signed_lazily_total ' "$SNAP"
grep -q '^survey_zones_untouched_total ' "$SNAP"
grep -q '^authserver_sign_wait_ns_count ' "$SNAP"
echo "survey metrics smoke OK ($SURVEY_URL)"

echo "== distributed survey smoke (coordinator + 2 workers on loopback) =="
DIST_STATE="$SMOKE_DIR/dist-state"
"$SMOKE_DIR/repro" -serve 127.0.0.1:0 -fig1 -shards 4 -domain-scale 500000 \
  -state-dir "$DIST_STATE" -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/coord.log" 2>"$SMOKE_DIR/coord.err" &
REPRO_PID=$!
COORD_ADDR=""
for _ in $(seq 1 100); do
  COORD_ADDR=$(sed -n 's#^repro: coordinating on \(.*\)$#\1#p' "$SMOKE_DIR/coord.err")
  [ -n "$COORD_ADDR" ] && break
  sleep 0.1
done
[ -n "$COORD_ADDR" ] || { echo "coordinator never bound"; cat "$SMOKE_DIR/coord.err"; exit 1; }
DIST_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/coord.err")
"$SMOKE_DIR/repro" -worker "$COORD_ADDR" -shards 4 -domain-scale 500000 \
  >"$SMOKE_DIR/worker1.log" 2>&1 &
W1_PID=$!
"$SMOKE_DIR/repro" -worker "$COORD_ADDR" -shards 4 -domain-scale 500000 \
  >"$SMOKE_DIR/worker2.log" 2>&1 &
W2_PID=$!
# Snapshot the coordinator's merged /metrics until it exits; the last
# good scrape carries the merged worker counters.
DSNAP="$SMOKE_DIR/dist-metrics.snap"
: > "$DSNAP"
while kill -0 "$REPRO_PID" 2>/dev/null; do
  curl -fsS "$DIST_URL" > "$DSNAP.tmp" 2>/dev/null && mv "$DSNAP.tmp" "$DSNAP"
  sleep 0.1
done
wait "$REPRO_PID" || { echo "coordinator exited nonzero"; cat "$SMOKE_DIR/coord.err"; exit 1; }
REPRO_PID=""
wait "$W1_PID" || { echo "worker 1 exited nonzero"; cat "$SMOKE_DIR/worker1.log"; exit 1; }
wait "$W2_PID" || { echo "worker 2 exited nonzero"; cat "$SMOKE_DIR/worker2.log"; exit 1; }
grep -q '^survey_shards_completed_total ' "$DSNAP"
grep -q '^distsurvey_leases_granted_total ' "$DSNAP"
grep -q '^distsurvey_workers_connected_total 2$' "$DSNAP"
ls "$DIST_STATE"/shard-*.json >/dev/null || { echo "no shard checkpoints written"; exit 1; }
echo "distributed survey smoke OK (coordinator $COORD_ADDR)"

echo "== resolver study smoke (repro -fig3 -shards 2) =="
"$SMOKE_DIR/repro" -fig3 -shards 2 -resolver-scale 2000 -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/fig3.log" 2>"$SMOKE_DIR/fig3.err" &
REPRO_PID=$!
FIG3_URL=""
for _ in $(seq 1 100); do
  FIG3_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/fig3.err")
  [ -n "$FIG3_URL" ] && break
  sleep 0.1
done
[ -n "$FIG3_URL" ] || { echo "repro -fig3 never exposed /metrics"; cat "$SMOKE_DIR/fig3.err"; exit 1; }
FSNAP="$SMOKE_DIR/fig3-metrics.snap"
: > "$FSNAP"
while kill -0 "$REPRO_PID" 2>/dev/null; do
  curl -fsS "$FIG3_URL" > "$FSNAP.tmp" 2>/dev/null && mv "$FSNAP.tmp" "$FSNAP"
  sleep 0.1
done
wait "$REPRO_PID" || { echo "repro -fig3 exited nonzero"; cat "$SMOKE_DIR/fig3.err"; exit 1; }
REPRO_PID=""
# Counters flush at each shard's merge, so the last pre-exit scrape
# reliably carries shard 1 (the open quadrants); the final merged
# report — all four quadrants — is asserted from stdout instead.
grep -q '^resolverstudy_probed_open_ipv4_total ' "$FSNAP"
grep -q '^resolverstudy_probed_open_ipv6_total ' "$FSNAP"
grep -q '^resolverstudy_shards_completed_total ' "$FSNAP"
grep -q '^dnssec_verify_memo_hits_total ' "$FSNAP"
grep -q '^nsec3_encloser_memo_misses_total ' "$FSNAP"
grep -q 'Open, IPv4' "$SMOKE_DIR/fig3.log"
grep -q 'Open, IPv6' "$SMOKE_DIR/fig3.log"
grep -q 'Closed, IPv4' "$SMOKE_DIR/fig3.log"
grep -q 'Closed, IPv6' "$SMOKE_DIR/fig3.log"
grep -q 'validators (all quadrants)' "$SMOKE_DIR/fig3.log"
grep -q 'probe failures (no transcript)         0' "$SMOKE_DIR/fig3.log"
echo "resolver study smoke OK ($FIG3_URL)"

echo "== distributed resolver study smoke (repro -fig3, coordinator + 2 workers) =="
# The same study as the leg above, leased to two worker processes: the
# printed Figure 3 block must match the in-process run byte for byte.
FIG3_STATE="$SMOKE_DIR/fig3-state"
"$SMOKE_DIR/repro" -fig3 -serve 127.0.0.1:0 -shards 2 -resolver-scale 2000 \
  -state-dir "$FIG3_STATE" -metrics 127.0.0.1:0 \
  >"$SMOKE_DIR/fig3-coord.log" 2>"$SMOKE_DIR/fig3-coord.err" &
REPRO_PID=$!
COORD_ADDR=""
for _ in $(seq 1 100); do
  COORD_ADDR=$(sed -n 's#^repro: coordinating on \(.*\)$#\1#p' "$SMOKE_DIR/fig3-coord.err")
  [ -n "$COORD_ADDR" ] && break
  sleep 0.1
done
[ -n "$COORD_ADDR" ] || { echo "fig3 coordinator never bound"; cat "$SMOKE_DIR/fig3-coord.err"; exit 1; }
FIG3_DIST_URL=$(sed -n 's#^repro: metrics on \(http://[^ ]*\)/metrics$#\1/metrics#p' "$SMOKE_DIR/fig3-coord.err")
"$SMOKE_DIR/repro" -fig3 -worker "$COORD_ADDR" -shards 2 -resolver-scale 2000 \
  >"$SMOKE_DIR/fig3-worker1.log" 2>&1 &
W1_PID=$!
"$SMOKE_DIR/repro" -fig3 -worker "$COORD_ADDR" -shards 2 -resolver-scale 2000 \
  >"$SMOKE_DIR/fig3-worker2.log" 2>&1 &
W2_PID=$!
F3DSNAP="$SMOKE_DIR/fig3-dist-metrics.snap"
: > "$F3DSNAP"
while kill -0 "$REPRO_PID" 2>/dev/null; do
  curl -fsS "$FIG3_DIST_URL" > "$F3DSNAP.tmp" 2>/dev/null && mv "$F3DSNAP.tmp" "$F3DSNAP"
  sleep 0.1
done
wait "$REPRO_PID" || { echo "fig3 coordinator exited nonzero"; cat "$SMOKE_DIR/fig3-coord.err"; exit 1; }
REPRO_PID=""
wait "$W1_PID" || { echo "fig3 worker 1 exited nonzero"; cat "$SMOKE_DIR/fig3-worker1.log"; exit 1; }
wait "$W2_PID" || { echo "fig3 worker 2 exited nonzero"; cat "$SMOKE_DIR/fig3-worker2.log"; exit 1; }
grep -q '^distsurvey_workers_connected_total 2$' "$F3DSNAP"
ls "$FIG3_STATE"/shard-*.json >/dev/null || { echo "no resolver-study checkpoints written"; exit 1; }
grep -q 'Open, IPv4' "$SMOKE_DIR/fig3-coord.log"
grep -q 'Open, IPv6' "$SMOKE_DIR/fig3-coord.log"
grep -q 'Closed, IPv4' "$SMOKE_DIR/fig3-coord.log"
grep -q 'Closed, IPv6' "$SMOKE_DIR/fig3-coord.log"
grep -q 'probe failures (no transcript)         0' "$SMOKE_DIR/fig3-coord.log"
sed -n '/^==== Figure 3/,$p' "$SMOKE_DIR/fig3.log" > "$SMOKE_DIR/fig3-inproc.block"
sed -n '/^==== Figure 3/,$p' "$SMOKE_DIR/fig3-coord.log" > "$SMOKE_DIR/fig3-dist.block"
[ -s "$SMOKE_DIR/fig3-dist.block" ] || { echo "coordinator printed no Figure 3 block"; exit 1; }
diff "$SMOKE_DIR/fig3-inproc.block" "$SMOKE_DIR/fig3-dist.block" \
  || { echo "distributed Figure 3 differs from the in-process run"; exit 1; }
echo "distributed resolver study smoke OK (coordinator $COORD_ADDR)"

echo "== statewalk smoke (differential state-machine walk, fixed seed) =="
# Every (topology × profile) cell through the real resolver, diffed
# against the expectation model. Any unexplained divergence exits
# nonzero; the NDJSON report is kept as a CI artifact for triage.
"$SMOKE_DIR/repro" -statewalk -seed 7 -statewalk-out statewalk-report.ndjson \
  > "$SMOKE_DIR/statewalk.log" || { cat "$SMOKE_DIR/statewalk.log"; exit 1; }
SW_CELLS=$(sed -n 's/^  cells executed  *\([0-9]*\)$/\1/p' "$SMOKE_DIR/statewalk.log")
[ -n "$SW_CELLS" ] && [ "$SW_CELLS" -ge 200 ] || {
  echo "statewalk ran ${SW_CELLS:-0} cells, want >= 200"
  cat "$SMOKE_DIR/statewalk.log"
  exit 1
}
echo "statewalk smoke OK ($SW_CELLS cells, report in statewalk-report.ndjson)"

echo "== reprolint self-check (golden fixtures) =="
# Replays every analyzer's golden fixture and publishes the per-analyzer
# JSON report (findings, want-marker mismatches, timing) as an artifact.
# A diagnostic drifting from its fixture markers fails this leg even if
# the real tree stays clean.
go run ./cmd/reprolint -selfcheck internal/lint/testdata > reprolint-selfcheck.json
# The report must cover the full suite: spot-check that the serving-path
# analyzers are present and that every fixture carried a timing.
for a in hotpathalloc bufalias poolsafe; do
  grep -q "\"analyzer\": \"$a\"" reprolint-selfcheck.json \
    || { echo "self-check report missing analyzer $a"; exit 1; }
done
grep -q '"elapsed_ms"' reprolint-selfcheck.json \
  || { echo "self-check report lacks elapsed_ms timings"; exit 1; }

echo "== reprolint (baseline ratchet) =="
# The baseline is the tolerated-findings ratchet. MAX_BASELINE pins the
# ceiling at the committed entry count; it may only ever be decreased.
# The JSON report is kept as a CI artifact for triage.
MAX_BASELINE=0
go run ./cmd/reprolint -json ./... > reprolint-report.json || true
go run ./cmd/reprolint -baseline lint.baseline.json -max-baseline "$MAX_BASELINE" ./...

echo "CI: all legs passed"
