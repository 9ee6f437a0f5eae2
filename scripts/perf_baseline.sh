#!/usr/bin/env bash
# Machine-readable wall-time baseline of the simulator itself.
#
# Runs the three paper figures that dominate suite runtime (tango-fig
# fig01, fig07, fig15) plus cold single-net GRU/LSTM simulations through
# tango-run, each RUNS times, and writes BENCH_simwall.json mapping each
# entry to its minimum user-CPU seconds (minimum, not mean: the machines
# this runs on are shared, and min-of-N is the standard noise filter for
# wall-clock perf tracking).  The figure entries keep the key names of
# the per-figure binaries tango-fig replaced (fig01_layer_time_breakdown,
# ...), so a baseline written before the switch still compares like
# with like.
#
# The RNN entries also run with TANGO_NO_MEMO=1 so the launch-memoization
# speedup is recorded alongside (<net>_memo_off and <net>_memo_speedup);
# the ISSUE-4 acceptance bar is gru/lstm_memo_speedup >= 3.
#
# A "wall_seconds_sharded" section records cold fig01/fig15 WALL times
# at TANGO_SIM_SHARDS=1,2,4 with TANGO_ENGINE_THREADS=1, so the
# intra-run sharding speedup (ISSUE-7: fig15 >=2x at 4 shards on a
# 4-core host) is tracked per machine.
#
#   scripts/perf_baseline.sh                # writes BENCH_simwall.json
#   RUNS=5 SEQLEN=1024 scripts/perf_baseline.sh
#   OUT=/tmp/w.json scripts/perf_baseline.sh
#
# Unless SKIP_SERVE=1, also boots a tango-serve daemon on an ephemeral
# port and drives it with tango-load (the default mix: all seven nets x
# the bench policy — never exact on the big CNNs — at both the sim and
# estimate tiers), writing the serving baseline (cold/warm QPS, p50/p99,
# warm-over-cold ratio, per-tier breakdown) to BENCH_serve.json
# (override with SERVE_OUT).  If a previous BENCH_serve.json exists, the
# fresh warm QPS must stay within 2% of it — SKIP_PROF_GUARD=1 skips
# this guard along with the profiling-off one.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-3}"
SEQLEN="${SEQLEN:-512}"
OUT="${OUT:-BENCH_simwall.json}"

if [[ ! -x build/tools/tango-run || ! -x build/bench/tango-fig ]]; then
    echo "building (cmake default tree at build/) ..." >&2
    cmake -B build -S . >/dev/null
    cmake --build build -j >/dev/null
fi

# min_user <cmd...> — minimum user-CPU seconds over $RUNS runs.
min_user() {
    local best="" t
    for _ in $(seq "$RUNS"); do
        t=$( { time "$@" >/dev/null 2>/dev/null; } 2>&1 |
             awk '/^user/ { sub("s", "", $2); split($2, a, "m");
                            printf "%.3f", a[1] * 60 + a[2] }' )
        if [[ -z $best ]] || awk -v a="$t" -v b="$best" \
                                 'BEGIN { exit !(a < b) }'; then
            best=$t
        fi
    done
    echo "$best"
}

# min_real <cmd...> — minimum WALL-CLOCK seconds over $RUNS runs.  The
# sharded entries below need wall time, not user time: intra-run
# sharding spends the same simulated work across K threads, so its
# speedup only shows on the real-time axis (user seconds go slightly UP
# from the fork/join overhead).
min_real() {
    local best="" t
    for _ in $(seq "$RUNS"); do
        t=$( { time "$@" >/dev/null 2>/dev/null; } 2>&1 |
             awk '/^real/ { sub("s", "", $2); split($2, a, "m");
                            printf "%.3f", a[1] * 60 + a[2] }' )
        if [[ -z $best ]] || awk -v a="$t" -v b="$best" \
                                 'BEGIN { exit !(a < b) }'; then
            best=$t
        fi
    done
    echo "$best"
}

declare -A wall
declare -A figkey=([fig01]=fig01_layer_time_breakdown
                   [fig07]=fig07_stall_breakdown
                   [fig15]=fig15_scheduler_sensitivity)
for fig in fig01 fig07 fig15; do
    echo "measuring tango-fig $fig (${RUNS}x) ..." >&2
    wall[${figkey[$fig]}]=$(min_user build/bench/tango-fig "$fig")
done
for net in gru lstm; do
    echo "measuring $net cold, seq-len $SEQLEN, memo on/off (${RUNS}x each) ..." >&2
    wall[$net]=$(min_user build/tools/tango-run exact "$net" \
                          --seq-len "$SEQLEN")
    wall[${net}_memo_off]=$(min_user env TANGO_NO_MEMO=1 \
                            build/tools/tango-run exact "$net" \
                            --seq-len "$SEQLEN")
done

# Intra-run CTA sharding: cold fig01/fig15 WALL time per shard count.
# TANGO_ENGINE_THREADS=1 pins run-level parallelism at one worker so the
# measured speedup is the intra-run (shard-level) one alone; the ISSUE-7
# acceptance bar is fig15_shards4 <= fig15_shards1 / 2 on a >=4-core
# host.
for k in 1 2 4; do
    echo "measuring sharded fig01/fig15 wall time, TANGO_SIM_SHARDS=$k (${RUNS}x each) ..." >&2
    wall[fig01_shards$k]=$(min_real env TANGO_SIM_SHARDS=$k \
                           TANGO_ENGINE_THREADS=1 \
                           build/bench/tango-fig fig01)
    wall[fig15_shards$k]=$(min_real env TANGO_SIM_SHARDS=$k \
                           TANGO_ENGINE_THREADS=1 \
                           build/bench/tango-fig fig15)
done

# Profiling-off guard: the per-PC profiler (SimPolicy::profile) must
# cost nothing when off — the hot loop gains exactly one predictable
# branch.  If a previous baseline exists, the fresh cold fig01 run
# (profiling off, as always in the benches) must stay within 2% of it.
# SKIP_PROF_GUARD=1 skips the check (e.g. first run on a new machine).
if [[ "${SKIP_PROF_GUARD:-0}" != "1" && -f "$OUT" ]]; then
    old=$(awk -F': ' '/"fig01_layer_time_breakdown"/ \
                      {gsub(/[ ,]/, "", $2); print $2; exit}' "$OUT")
    new="${wall[fig01_layer_time_breakdown]}"
    if [[ -n $old ]]; then
        if ! awk -v old="$old" -v new="$new" \
                 'BEGIN { exit !(new <= old * 1.02) }'; then
            echo "profiling-off guard FAILED: cold fig01 ${new}s is more" \
                 "than 2% over the $OUT baseline ${old}s" >&2
            exit 1
        fi
        echo "profiling-off guard: cold fig01 ${new}s within 2%" \
             "of baseline ${old}s" >&2
    fi
fi

{
    echo "{"
    echo "  \"runs\": $RUNS,"
    echo "  \"seq_len\": $SEQLEN,"
    echo "  \"user_seconds\": {"
    sep=""
    for k in fig01_layer_time_breakdown fig07_stall_breakdown \
             fig15_scheduler_sensitivity gru gru_memo_off lstm \
             lstm_memo_off; do
        printf '%s    "%s": %s' "$sep" "$k" "${wall[$k]}"
        sep=$',\n'
    done
    printf '\n  },\n'
    echo "  \"wall_seconds_sharded\": {"
    sep=""
    for k in 1 2 4; do
        for fig in fig01 fig15; do
            printf '%s    "%s_shards%s": %s' "$sep" "$fig" "$k" \
                   "${wall[${fig}_shards$k]}"
            sep=$',\n'
        done
    done
    printf '\n  },\n'
    echo "  \"memo_speedup\": {"
    for net in gru lstm; do
        ratio=$(awk -v off="${wall[${net}_memo_off]}" -v on="${wall[$net]}" \
                    'BEGIN { printf "%.2f", off / on }')
        [[ $net == gru ]] && comma="," || comma=""
        echo "    \"$net\": $ratio$comma"
    done
    echo "  }"
    echo "}"
} > "$OUT"

echo "wrote $OUT:" >&2
cat "$OUT"

if [[ "${SKIP_SERVE:-0}" != "1" ]]; then
    SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"
    echo "measuring tango-serve cold vs warm QPS (sim + estimate tiers) ..." >&2
    servedir=$(mktemp -d)
    build/tools/tango-serve --port 0 --port-file "$servedir/port" &
    serve_pid=$!
    for _ in $(seq 100); do [[ -s "$servedir/port" ]] && break; sleep 0.1; done
    [[ -s "$servedir/port" ]] || { echo "tango-serve never bound" >&2; exit 1; }
    build/tools/tango-load --port "$(cat "$servedir/port")" \
        --conns 4 --requests 200 --tier sim,estimate \
        --json "$servedir/serve.json"
    kill -TERM "$serve_pid"
    wait "$serve_pid"

    # Serving-rate guard: the fresh warm QPS must stay within 2% of the
    # published baseline (the warm path is pure cache/dedup serving, so
    # any regression here is daemon overhead, not simulator speed).
    if [[ "${SKIP_PROF_GUARD:-0}" != "1" && -f "$SERVE_OUT" ]]; then
        old_qps=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["warm"]["qps"])' "$SERVE_OUT")
        new_qps=$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["warm"]["qps"])' "$servedir/serve.json")
        if ! awk -v old="$old_qps" -v new="$new_qps" \
                 'BEGIN { exit !(new >= old * 0.98) }'; then
            echo "serve-QPS guard FAILED: warm ${new_qps} QPS is more than" \
                 "2% below the $SERVE_OUT baseline ${old_qps} QPS" >&2
            rm -rf "$servedir"
            exit 1
        fi
        echo "serve-QPS guard: warm ${new_qps} QPS within 2% of" \
             "baseline ${old_qps} QPS" >&2
    fi
    mv "$servedir/serve.json" "$SERVE_OUT"
    rm -rf "$servedir"
    echo "wrote $SERVE_OUT" >&2
fi
