#!/usr/bin/env bash
# Record the repo's perf trajectory: run the shard-count sweep, the
# range-query span sweep, and the persistence sweep, and write one
# combined JSON at the repo root. leapd's end-to-end numbers come from
# perfbench/ (python3 perfbench/run.py), not from this script.
#
#   [BENCH_NAME=...] bench/record_bench.sh [build-dir]   (default: ./build)
#
# BENCH_NAME names the output file (default BENCH_LATEST → the rolling
# CI artifact, gitignored). A PR that commits its trajectory sets a
# frozen name instead, e.g. `BENCH_NAME=BENCH_PR7 bench/record_bench.sh`.
#
# Three sweeps feed the file:
#   * bench/abl_shard.cpp — leap::ShardedMap at S = 1..64 shards,
#     8 threads, read-mostly and mixed. The *_scaling ratios (top S
#     over S = 1, same machine, same run) are the portable signal —
#     absolute ops/sec are machine-dependent.
#   * bench/abl_rqspan.cpp (PR 10) — range-query span sweep plus the
#     bundled-references crossover: one 8-shard ShardedMap under 50%
#     range / 50% modify, the TM-stitched transactional scan vs the
#     for_range_bundled as-of walk on the same map. Both sides are
#     linearizable; bundled_over_stitched_spanN per span width is the
#     portable signal (the as-of walk never aborts, so its edge grows
#     with span and update pressure).
#   * persistence — the same write-heavy workload against three
#     leapd configurations: pure in-memory, --fsync-mode off, and
#     group. MEDIAN of 3 trials per mode (this VM's throughput is
#     noisy); the portable signals are the ratios group/mem (the price
#     of an fsync-acked write under group commit) and off/mem (the
#     price of WAL buffering alone). One shard concentrates the WAL
#     into a single fsync chain — maximal group-commit amortization —
#     and a huge --checkpoint-bytes keeps checkpoint flushes out of
#     the measured window. Then a crash cycle: write a key range,
#     kill -9, time the restart (listen-line wall time minus an
#     empty-dir baseline = WAL replay cost), and measure hot
#     (in-memory) vs cold (post-checkpoint, bloom+run) read latency.
#
# Earlier committed trajectories (BENCH_PR4.json from abl_alloc,
# BENCH_PR5.json from abl_shard alone, BENCH_PR6.json and BENCH_PR7.json
# with the retired loadgen net sweep and overload curves) stay as
# history; their guards still run in ctest.
#
# LEAP_BENCH_SMOKE=1 shrinks all sweeps (tiny windows, small grids).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-"$ROOT/build"}"
NAME="${BENCH_NAME:-BENCH_LATEST}"
OUT="$ROOT/$NAME.json"
CUR_SHARD="$(mktemp)"
CUR_RQSPAN="$(mktemp)"
CUR_TRIAL="$(mktemp)"
SERVER_LOG="$(mktemp)"
SERVER_PID=""
DATADIR=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$CUR_SHARD" "$CUR_RQSPAN" "$CUR_TRIAL" "$SERVER_LOG"
  # An if, not `[[ ]] && rm`: under set -e a false test as the trap's
  # last command would turn a finished run's exit status into 1.
  if [[ -n "$DATADIR" ]]; then rm -rf "$DATADIR"; fi
}
trap cleanup EXIT

for bin in abl_shard abl_rqspan leapd leap-loadgen; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "record_bench: $BUILD/$bin not built (cmake --build $BUILD)" >&2
    exit 1
  fi
done

# Start leapd with the given extra flags; sets SERVER_PID and PORT.
start_leapd() {
  : > "$SERVER_LOG"
  "$BUILD/leapd" --port 0 --workers 2 --shards 8 --stats-interval 0 \
    "$@" > "$SERVER_LOG" &
  SERVER_PID=$!
  PORT=""
  # 20 ms poll: the persistence sweep times recovery off this loop, so
  # its granularity bounds the replay-time measurement error.
  for _ in $(seq 1 1500); do
    PORT="$(sed -n 's/^leapd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$SERVER_LOG" | head -n1)"
    [[ -n "$PORT" ]] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "record_bench: leapd died before listening:" >&2
      cat "$SERVER_LOG" >&2
      exit 1
    fi
    sleep 0.02
  done
  if [[ -z "$PORT" ]]; then
    echo "record_bench: leapd never printed its listen line" >&2
    exit 1
  fi
}

stop_leapd() {
  kill -TERM "$SERVER_PID"
  local status=0
  wait "$SERVER_PID" || status=$?
  SERVER_PID=""
  if [[ "$status" -ne 0 ]] || ! grep -q "clean shutdown" "$SERVER_LOG"; then
    echo "record_bench: leapd did not shut down cleanly (exit $status):" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
}

# --- sweep 1: shard scaling -------------------------------------------
LEAP_BENCH_JSON="$CUR_SHARD" "$BUILD/abl_shard"

# --- sweep 1b: range-query span + bundled-vs-stitched crossover -------
LEAP_BENCH_JSON="$CUR_RQSPAN" "$BUILD/abl_rqspan"

MODE="full"
[[ -n "${LEAP_BENCH_SMOKE:-}" ]] && MODE="smoke"

# --- sweep 2: persistence — fsync-mode overhead, recovery, cold reads --
# Write-heavy fixed config: one map shard (one WAL = one fsync chain,
# maximal group amortization), deep pipelines + large batch cap so
# whole bursts commit and sync together, checkpoint threshold far
# above the bytes a trial writes (flushes would steal the single core
# mid-measurement and pollute the WAL-overhead signal).
PERSIST_ARGS=(--shards 1 --batch 512 --checkpoint-bytes 268435456)
GEN_ARGS=(--threads 2 --pipeline 512 --mix 0:100:0:0:0 --preload 0)
TRIALS=3
GEN_SECONDS=4
if [[ "$MODE" == "smoke" ]]; then
  TRIALS=1
  GEN_SECONDS=1
fi

# Median goodput (ops/s) over $TRIALS trials of one mode; leapd flag
# args follow. Each trial is a fresh server and (when durable) a fresh
# data dir, so trials never replay each other's WAL.
persist_median() {
  local trials=()
  local t
  for ((t = 0; t < TRIALS; ++t)); do
    local dir_args=()
    if [[ "$1" != "mem" ]]; then
      DATADIR="$(mktemp -d)"
      dir_args=(--data-dir "$DATADIR" --fsync-mode "$1")
    fi
    start_leapd "${PERSIST_ARGS[@]}" "${dir_args[@]}"
    LEAP_BENCH_JSON="$CUR_TRIAL" "$BUILD/leap-loadgen" --port "$PORT" \
      "${GEN_ARGS[@]}" --seconds "$GEN_SECONDS" > /dev/null
    stop_leapd
    if [[ -n "$DATADIR" ]]; then
      rm -rf "$DATADIR"
      DATADIR=""
    fi
    trials+=("$(sed -n 's/.*_ops_per_sec": \([0-9.]*\).*/\1/p' \
                "$CUR_TRIAL" | head -n1)")
  done
  printf '%s\n' "${trials[@]}" | sort -n | \
    awk -v n="$TRIALS" 'NR == int((n + 1) / 2) { print; exit }'
}

MEM_OPS="$(persist_median mem)"
OFF_OPS="$(persist_median off)"
GROUP_OPS="$(persist_median group)"

# Recovery: write a key range durably, kill -9, time the restart's
# listen line (recovery replays before it prints), subtract the same
# measure on an empty dir (process startup). Then read latency hot
# (everything in the memtable) vs cold (tiny checkpoint bar flushed +
# evicted everything into runs; get_cold does not re-warm, so every
# cold get stays a run read).
NKEYS=200000
[[ "$MODE" == "smoke" ]] && NKEYS=20000

# start leapd "$@" and set LISTEN_MS to the wall ms until its listen
# line appeared (NOT a subshell — start_leapd must set SERVER_PID/PORT
# in this shell).
listen_ms() {
  local t0 t1
  t0="$(date +%s%N)"
  start_leapd "$@"
  t1="$(date +%s%N)"
  LISTEN_MS=$(((t1 - t0) / 1000000))
}

DATADIR="$(mktemp -d)"
listen_ms "${PERSIST_ARGS[@]}" --data-dir "$DATADIR" --fsync-mode group
BASELINE_MS="$LISTEN_MS"
"$BUILD/leap-loadgen" --port "$PORT" --putrange "0:$NKEYS" > /dev/null
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

listen_ms "${PERSIST_ARGS[@]}" --data-dir "$DATADIR" --fsync-mode group
RESTART_MS="$LISTEN_MS"
RECOVERED="$(sed -n 's/^leapd: store open .*recovered=\([0-9]*\).*/\1/p' \
             "$SERVER_LOG" | head -n1)"

# Cold reads: checkpoint everything into runs (a tiny bar makes the
# background flusher evict the replayed memtable almost immediately),
# then an all-get run over the written range.
stop_leapd
start_leapd --shards 1 --batch 512 --checkpoint-bytes 65536 \
  --data-dir "$DATADIR" --fsync-mode group
sleep 1  # let the flusher finish evicting
LEAP_BENCH_JSON="$CUR_TRIAL" "$BUILD/leap-loadgen" --port "$PORT" \
  --threads 2 --pipeline 16 --mix 100:0:0:0:0 --preload 0 \
  --keys "$NKEYS" --seconds "$GEN_SECONDS" > /dev/null
COLD_P50="$(sed -n 's/.*_p50_ns": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
COLD_P99="$(sed -n 's/.*_p99_ns": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
COLD_OPS="$(sed -n 's/.*_ops_per_sec": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
stop_leapd
rm -rf "$DATADIR"
DATADIR=""

# Hot baseline: same reads, pure in-memory server, preloaded range.
start_leapd "${PERSIST_ARGS[@]}"
"$BUILD/leap-loadgen" --port "$PORT" --putrange "0:$NKEYS" > /dev/null
LEAP_BENCH_JSON="$CUR_TRIAL" "$BUILD/leap-loadgen" --port "$PORT" \
  --threads 2 --pipeline 16 --mix 100:0:0:0:0 --preload 0 \
  --keys "$NKEYS" --seconds "$GEN_SECONDS" > /dev/null
HOT_P50="$(sed -n 's/.*_p50_ns": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
HOT_P99="$(sed -n 's/.*_p99_ns": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
HOT_OPS="$(sed -n 's/.*_ops_per_sec": \([0-9.]*\).*/\1/p' "$CUR_TRIAL" | head -n1)"
stop_leapd

ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", (b > 0) ? a / b : 0 }'; }
REPLAY_MS=$((RESTART_MS > BASELINE_MS ? RESTART_MS - BASELINE_MS : 0))

{
  echo '{'
  echo "  \"bench\": \"$NAME\","
  echo "  \"current_mode\": \"$MODE\","
  echo '  "note": "shard-sweep scaling ratios compare top-S to S=1 within this run (same machine) and are the portable signal; absolute ops/sec are machine-dependent",'
  echo '  "shard_sweep_workload": "1 structure, 100K keys, 8 threads; read-mostly 90/0/10 and mixed 40/30/30; sharded LT / tm / rwlock",'
  echo -n '  "shard_sweep": '
  sed 's/^/  /' "$CUR_SHARD" | sed '1s/^  //'
  echo ','
  echo '  "rqspan_workload": "one structure, 100K keys, max threads; sweep 1: 100% range queries, LT vs skip baselines, per span; sweep 2 (crossover): 50% range / 50% modify on one 8-shard ShardedMap, TM-stitched transactional scan vs for_range_bundled as-of walk on the SAME map (both linearizable), plus sharded-LT bundled-native; the bundled_over_stitched_spanN ratios are the portable signal",'
  echo -n '  "rqspan": '
  sed 's/^/  /' "$CUR_RQSPAN" | sed '1s/^  //'
  echo ','
  echo '  "persistence_workload": "leapd 2 workers, 1 shard, batch 512, checkpoint-bytes 256M; loadgen 2 threads, pipeline 512, all-put mix; median of '"$TRIALS"' trials x '"$GEN_SECONDS"'s per mode; recovery = kill -9 after putrange 0:'"$NKEYS"', replay_ms = restart listen-line wall time minus empty-dir baseline; cold reads = all-get over a fully checkpointed+evicted range (runs, bloom-gated) vs the same range hot in a pure in-memory server",'
  echo '  "persistence": {'
  echo "    \"mem_ops_per_sec\": $MEM_OPS,"
  echo "    \"off_ops_per_sec\": $OFF_OPS,"
  echo "    \"group_ops_per_sec\": $GROUP_OPS,"
  echo "    \"off_over_mem\": $(ratio "$OFF_OPS" "$MEM_OPS"),"
  echo "    \"group_over_mem\": $(ratio "$GROUP_OPS" "$MEM_OPS"),"
  echo "    \"mem_over_group_slowdown_x\": $(ratio "$MEM_OPS" "$GROUP_OPS"),"
  echo "    \"recovery_keys\": $NKEYS,"
  echo "    \"recovered_ops\": ${RECOVERED:-0},"
  echo "    \"startup_baseline_ms\": $BASELINE_MS,"
  echo "    \"restart_with_replay_ms\": $RESTART_MS,"
  echo "    \"replay_ms\": $REPLAY_MS,"
  echo "    \"hot_read_ops_per_sec\": $HOT_OPS,"
  echo "    \"hot_read_p50_ns\": $HOT_P50,"
  echo "    \"hot_read_p99_ns\": $HOT_P99,"
  echo "    \"cold_read_ops_per_sec\": $COLD_OPS,"
  echo "    \"cold_read_p50_ns\": $COLD_P50,"
  echo "    \"cold_read_p99_ns\": $COLD_P99,"
  echo "    \"cold_over_hot_p50\": $(ratio "$COLD_P50" "$HOT_P50"),"
  echo "    \"cold_over_hot_p99\": $(ratio "$COLD_P99" "$HOT_P99")"
  echo '  }'
  echo '}'
} > "$OUT"

echo "record_bench: wrote $OUT ($MODE run)"
