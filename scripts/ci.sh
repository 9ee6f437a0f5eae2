#!/usr/bin/env bash
# One-command CI gate: default build + full test suite (including the
# golden-stats corpus) + the TANGO_SIM_SHARDS={1,2,4} golden matrix +
# one round of perfbench's cnn_sweep_cold against its reference digests +
# the paper figures cold and warm (tango-fig all, byte-identical) +
# the parallel-determinism tier + a tango-trace export validated as
# JSON + AddressSanitizer decoder/serve tests + ThreadSanitizer
# engine/trace/parallel tests.
#
#   scripts/ci.sh            # everything
#   SKIP_ASAN=1 scripts/ci.sh  # skip the AddressSanitizer stage
#   SKIP_TSAN=1 scripts/ci.sh  # skip the tsan stage (e.g. no tsan rt)
#   SKIP_SERVE=1 scripts/ci.sh # skip the tango-serve daemon stage
#   SKIP_FIT=1 scripts/ci.sh   # skip the estimate-tier fit/check stage
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== configure + build (default preset) ==="
cmake --preset default
cmake --build --preset default -j

echo "=== tier-1 tests (includes -L golden and -L trace) ==="
ctest --preset default -j

echo "=== shard matrix: golden corpus at TANGO_SIM_SHARDS=1,2,4 ==="
# Intra-run CTA sharding is pinned per shard count: K=1 against the
# base fixtures, K>1 against the <net>.k<K>.json corpus (the documented
# delta policy — see DESIGN.md "Intra-run sharding").
for k in 1 2 4; do
    echo "--- TANGO_SIM_SHARDS=$k ---"
    TANGO_SIM_SHARDS=$k ctest --test-dir build -L golden \
        --output-on-failure -j
done

echo "=== perfbench cnn_sweep_cold: one round against the reference digests ==="
# The Fig 2/15 grid (GTO, LRR and L1D off on four full networks) is the
# only bit-exact check of LRR and L1D-off on whole networks; the last
# stdout line is the result, which must report correct:true.
bench=$(python3 perfbench/run.py --workload cnn_sweep_cold --seed 1 \
    --seconds 1 --trace 0 | tail -n 1)
echo "$bench"
grep -q '"correct":true' <<< "$bench"

echo "=== chaos tier (well-formed requests that once killed tango-serve) ==="
ctest --test-dir build -L chaos --output-on-failure -j

echo "=== paper figures: tango-fig all cold, then warm from its spill ==="
# Every figure and every Observation predicate (tango-fig exits 1 on an
# unexpected result).  The second run recalls every job from the first
# run's TANGO_ENGINE_CACHE and must print byte-identical stdout.
figdir=$(mktemp -d)
TANGO_ENGINE_CACHE="$figdir/cache.json" build/bench/tango-fig all \
    > "$figdir/cold.txt"
TANGO_ENGINE_CACHE="$figdir/cache.json" build/bench/tango-fig all \
    > "$figdir/warm.txt"
cmp "$figdir/cold.txt" "$figdir/warm.txt"
tail -n 1 "$figdir/warm.txt"
rm -rf "$figdir"

echo "=== parallel-determinism tier (sharded runs are bit-reproducible) ==="
ctest --test-dir build -L parallel --output-on-failure -j

echo "=== tango-trace export validates as JSON ==="
tracedir=$(mktemp -d)
build/tools/tango-trace --out "$tracedir" fig alexnet
python3 -m json.tool "$tracedir/alexnet.trace.json" > /dev/null
echo "alexnet.trace.json: valid"

echo "=== launch memoization replays steady-state RNN timesteps ==="
build/tools/tango-trace --summary --out "$tracedir" gru |
    grep -E 'launches: replayed=[1-9][0-9]* simulated=[1-9]'
rm -rf "$tracedir"

echo "=== tango-prof hotspot attribution (folded flamegraph export) ==="
profdir=$(mktemp -d)
build/tools/tango-prof --folded "$profdir/alexnet.folded" fig alexnet \
    > "$profdir/alexnet.txt"
# Aggregate the folded stacks ("net;layer;kernel;label cycles") by label.
# The hottest label of the whole network must be a MAC inner loop, and
# restricted to the conv layers it must be conv.mac (alexnet's fc6 is
# memory-bound and tops the whole-network profile).
top=$(awk '{n = split($1, a, ";"); s[a[n]] += $2}
           END {best = ""
                for (l in s) if (best == "" || s[l] > s[best]) best = l
                print best}' "$profdir/alexnet.folded")
echo "top hotspot label: $top"
echo "$top" | grep -qE '\.mac$'
convtop=$(awk -F';' '$2 ~ /^conv/ {split($4, b, " "); s[b[1]] += b[2]}
           END {best = ""
                for (l in s) if (best == "" || s[l] > s[best]) best = l
                print best}' "$profdir/alexnet.folded")
echo "top conv-layer label: $convtop"
[[ "$convtop" == "conv.mac" ]]
rm -rf "$profdir"

if [[ "${SKIP_SERVE:-0}" != "1" ]]; then
    echo "=== tango-serve: dedup, cache hits, hostile frames, metrics scrape, drain ==="
    servedir=$(mktemp -d)
    build/tools/tango-serve --port 0 --port-file "$servedir/port" &
    serve_pid=$!
    # A failed check below exits the script (set -e); the daemon must not
    # outlive it, or it keeps stdout open and `scripts/ci.sh | tee log`
    # hangs instead of failing.
    trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$servedir"' EXIT
    for _ in $(seq 100); do [[ -s "$servedir/port" ]] && break; sleep 0.1; done
    [[ -s "$servedir/port" ]] || { echo "tango-serve never bound" >&2; exit 1; }
    build/tools/tango-load --port "$(cat "$servedir/port")" \
        --nets gru,lstm --conns 4 --requests 25 --json "$servedir/load.json"
    # Every warm request must be served from cache/dedup: the engine's
    # miss counter (actual simulations) stays at the cold job count.
    python3 - "$servedir/load.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
stats, warm = rec["server_stats"], rec["warm"]
assert rec["cold"]["ok"] == rec["jobs"], rec["cold"]
assert warm["ok"] == warm["requests"] and warm["requests"] > 0, warm
assert stats["cache_misses"] == rec["jobs"], stats
assert stats["cache_mem_hits"] >= warm["requests"], stats
assert stats["failures"] == 0, stats
print("serve: %d jobs simulated once, %d warm hits (hit rate %.3f)"
      % (stats["cache_misses"], stats["cache_mem_hits"],
         stats["cache_hit_rate"]))
EOF
    # Hostile-frame corpus: each frame must come back as a failed result
    # with the expected error, and the daemon must keep serving: a real
    # job runs after the corpus.  Fresh server stats are then taken for
    # the metrics scrape below, so its invariants also cover the frames.
    python3 - "$(cat "$servedir/port")" "$servedir/load.json" \
        "$servedir/stats.json" <<'EOF'
import json, socket, struct, sys

def run(job):
    return json.dumps({"type": "run", "id": 1, "job": job}).encode()

corpus = {
    "deep nesting (1 MiB of '[')": (b"[" * (1 << 20), "bad request"),
    "L1D smaller than one set": (
        run({"net": "cifarnet", "l1dBytes": 1}), "bad request"),
    "1000 shards": (
        run({"net": "gru", "runPolicy": {"sim": {"shards": 1000}}}),
        "bad request"),
    "10-cycle safety cap": (
        run({"net": "gru", "seqLen": 4,
             "runPolicy": {"sim": {"maxCycles": 10}}}),
        "simulation failed"),
    "l1dBytes 2^32 + 64 KiB": (
        run({"net": "cifarnet", "l1dBytes": 4295032832}), "bad request"),
    "shards 2^32 + 8": (
        run({"net": "gru", "runPolicy": {"sim": {"shards": 4294967304}}}),
        "bad request"),
    "l1dBytes as a string": (
        run({"net": "cifarnet", "l1dBytes": "64K"}), "bad request"),
}
corpus["then a real job"] = (run({"net": "gru", "seqLen": 4}), None)

def request(name, payload):
    s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
    s.sendall(struct.pack(">I", len(payload)) + payload)
    def recv_exact(n):
        buf = b""
        while len(buf) < n:
            chunk = s.recv(n - len(buf))
            assert chunk, "%s: tango-serve closed the connection" % name
            buf += chunk
        return buf
    (n,) = struct.unpack(">I", recv_exact(4))
    reply = json.loads(recv_exact(n))
    s.close()
    return reply

# A length prefix past kMaxFrameBytes (64 MiB): the daemon closes the
# connection without reading a payload or replying; the corpus's real
# job below must still be served.
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.settimeout(30)
s.sendall(struct.pack(">I", (64 << 20) + 1))
try:
    assert s.recv(1) == b"", "oversize length prefix got a reply"
except ConnectionResetError:
    pass
s.close()
print("hostile frame, oversize length prefix: connection closed")

for name, (payload, error) in corpus.items():
    reply = request(name, payload)
    assert reply["type"] == "result", reply
    if error is None:
        assert reply["ok"] is True, reply
        print("%s: ok, served=%s" % (name, reply["served"]))
    else:
        assert reply["ok"] is False, reply
        assert reply["error"].startswith(error), reply
        print("hostile frame, %s: %s" % (name, reply["error"]))

# Six frames are bad requests and the capped job is one failure; the
# oversize prefix is counted by neither, and nothing else moved them.
before = json.load(open(sys.argv[2]))["server_stats"]
after = request("stats", b'{"type":"stats"}')
assert after["invalid"] == before["invalid"] + 6, (before, after)
assert after["failures"] == before["failures"] + 1, (before, after)
json.dump(after, open(sys.argv[3], "w"))
EOF
    # Scrape the live metrics frame (tango-top --raw = one Prometheus
    # scrape) and assert it agrees with itself and the stats endpoint.
    build/tools/tango-top --raw --port "$(cat "$servedir/port")" \
        > "$servedir/metrics.prom"
    python3 - "$servedir/metrics.prom" "$servedir/stats.json" <<'EOF'
import json, sys
series = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name_labels, value = line.rsplit(" ", 1)
    series[name_labels] = float(value)

def total(family):
    return sum(v for k, v in series.items()
               if k == family or k.startswith(family + "{"))

served = total("tango_serve_served_total")
tiers = total("tango_serve_tier_total")
assert served == tiers > 0, (served, tiers)
rejects = total("tango_serve_rejects_total")
stats = json.load(open(sys.argv[2]))
assert rejects == stats["rejected_queue_full"] + stats["rejected_draining"], \
    (rejects, stats)
assert served == (stats["served_sim"] + stats["served_join"] +
                  stats["served_mem"] + stats["served_disk"]), (served, stats)
depth = series.get("tango_engine_inflight_sims", -1)
assert depth == 0, "queue depth %r after drain" % depth
assert total("tango_serve_latency_us_count") == served, series
assert total("tango_serve_invalid_total") == stats["invalid"], (series, stats)
assert total("tango_serve_failures_total") == stats["failures"], \
    (series, stats)
# The engine's cache counters and the request counts agree with the
# stats reply.  The stats frame counted itself in stats["requests"];
# the metrics frame counted itself before this scrape was rendered.
for result, key in (("mem_hit", "cache_mem_hits"),
                    ("disk_hit", "cache_disk_hits"),
                    ("miss", "cache_misses")):
    got = series.get('tango_engine_cache_total{result="%s"}' % result, 0)
    assert got == stats[key], (result, got, stats)
assert total("tango_serve_requests_total") == stats["requests"] + 1, \
    (series, stats)
assert total("tango_serve_run_requests_total") == stats["run_requests"], \
    (series, stats)
print("metrics scrape: %d served == tier sum, %d rejects, queue drained"
      % (served, rejects))
EOF
    # SIGTERM must drain gracefully and exit 0 (set -e enforces it).
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    echo "tango-serve drained cleanly on SIGTERM"
    trap - EXIT
    rm -rf "$servedir"
fi

if [[ "${SKIP_FIT:-0}" != "1" ]]; then
    echo "=== tango-fit: estimate tier holds its accuracy contract ==="
    # Fit fresh models from a reduced sweep, then check them against
    # fresh cycle-level truth: per-layer p95 relative cycle error <= 15%
    # on alexnet + gru, and estimate-tier per-figType cycle totals must
    # rank layers exactly as the simulator does.  The engine disk cache
    # is shared between the two steps so the check's ground-truth sims
    # replay from the sweep instead of re-simulating.
    fitdir=$(mktemp -d)
    TANGO_ENGINE_CACHE="$fitdir/cache.json" \
        build/tools/tango-fit --reduced --out "$fitdir/weights"
    TANGO_ENGINE_CACHE="$fitdir/cache.json" \
        build/tools/tango-fit --check --weights "$fitdir/weights" \
        --nets alexnet,gru --max-p95 0.15
    rm -rf "$fitdir"
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
    echo "=== AddressSanitizer: JSON reader, NetRun decoder, serve frames ==="
    # The decoders read untrusted frames; the preset builds only the
    # test_common, test_job and test_serve binaries.
    cmake --preset asan
    cmake --build --preset asan -j
    ctest --preset asan -j
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
    echo "=== ThreadSanitizer engine + trace tests ==="
    cmake --preset tsan
    cmake --build --preset tsan -j
    ctest --preset tsan -j
fi

echo "=== CI gate passed ==="
