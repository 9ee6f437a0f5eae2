#include "catalog.hh"

#include <cctype>

namespace perfbench {

namespace {

constexpr const char *kCnn = "cnn_sweep_cold";
constexpr const char *kRnn = "rnn_replay_cold";
constexpr const char *kServe = "serve_hits";
constexpr const char *kCold = "cnn_sweep_cold,rnn_replay_cold";
constexpr const char *kAll = "cnn_sweep_cold,rnn_replay_cold,serve_hits";

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m = {
        // nn: model construction (thousands of RNN cells at long seqLen).
        {"nn.build_ms", "ms", "lower", "nn", "host_s", kRnn},
        // runtime.lowering: kernels and device buffers per network.
        {"lowering.ms", "ms", "lower", "runtime.lowering", "host_s", kRnn},
        {"lowering.kernels", "count", "lower", "runtime.lowering", "host_s",
         kRnn},
        // sim, timing core: Gpu::launch host time and the exact work it
        // simulated.  Rates count fully simulated launches only.
        {"sim.launch_s", "s", "lower", "sim", "host_s", kCnn},
        {"sim.launches", "count", "lower", "sim", "host_s", kCnn},
        {"sim.issued_winst", "count", "lower", "sim", "host_s", kCnn},
        {"sim.gpu_cycles", "count", "lower", "sim", "host_s", kCnn},
        {"sim.sm_cycles", "count", "lower", "sim", "host_s", kCnn},
        {"sim.winst_per_s", "1/s", "higher", "sim", "host_s", kCnn},
        {"sim.host_ns_per_cycle", "ns", "lower", "sim", "host_s", kCnn},
        // sim, launch memoization: replay instead of simulation.
        {"memo.simulated", "count", "lower", "sim", "host_s", kRnn},
        {"memo.replayed", "count", "higher", "sim", "host_s", kRnn},
        {"memo.replay_ratio", "ratio", "higher", "sim", "host_s", kRnn},
        {"memo.mismatches", "count", "lower", "sim", "host_s", kRnn},
        {"memo.replay_us", "us", "lower", "sim", "host_s", kRnn},
        {"memo.arm_ms", "ms", "lower", "sim", "host_s", kRnn},
        // runtime: Runtime::run outside lowering and launches.
        {"runtime.self_ms", "ms", "lower", "runtime", "host_s", kCold},
        // runtime.engine: queueing on the cold path, hits on the warm one.
        {"engine.queue_wait_ms", "ms", "lower", "runtime.engine", "host_s",
         kCnn},
        {"engine.self_ms", "ms", "lower", "runtime.engine", "host_s", kCold},
        {"engine.hit_us", "us", "lower", "runtime.engine", "host_s", kServe},
        {"engine.hit_ratio", "ratio", "higher", "runtime.engine", "host_s",
         kServe},
        // Serialization: NetRun copy + makeResultResponse, per request of
        // the serve mix, and per network of the sim tier.
        {"serialize.ms", "ms", "lower", "serve.protocol", "host_s,peak_rss_mb",
         kServe},
        {"serialize.self_ms", "ms", "lower", "serve.protocol", "host_s",
         kServe},
        {"response.kb", "KB", "lower", "serve.protocol", "host_s,peak_rss_mb",
         kServe},
        // serve.server: service time as the server logs it.
        {"server.latency_p50_ms", "ms", "lower", "serve.server", "host_s",
         kServe},
        {"server.latency_p99_ms", "ms", "lower", "serve.server", "host_s",
         kServe},
        {"server.rtt_share", "ratio", "higher", "serve.server", "host_s",
         kServe},
        {"server.self_ms", "ms", "lower", "serve.server", "host_s", kServe},
        // serve.protocol, client side: Client::run taken apart.
        {"client.requests", "count", "higher", "serve.protocol", "host_s",
         kServe},
        {"client.rtt_p50_ms", "ms", "lower", "serve.protocol", "host_s",
         kServe},
        {"client.rtt_p99_ms", "ms", "lower", "serve.protocol", "host_s",
         kServe},
        {"client.roundtrip_ms", "ms", "lower", "serve.protocol", "host_s",
         kServe},
        {"client.parse_ms", "ms", "lower", "serve.protocol", "host_s",
         kServe},
        {"client.self_ms", "ms", "lower", "serve.protocol", "host_s", kServe},
        // estimate: the estimate tier answers during serve_hits set-up.
        {"estimate.ms", "ms", "lower", "estimate", "setup_s", kServe},
        {"estimate.answer_ratio", "ratio", "higher", "estimate", "setup_s",
         kServe},
        {"estimate.self_ms", "ms", "lower", "estimate", "setup_s", kServe},
        // The benchmark's own tracing cost (traced minus untraced round).
        {"trace.overhead_s", "s", "lower", "perfbench", "host_s", kAll},
    };
    for (const char *fam : kFamilies) {
        const std::string k = "sim." + familyKey(fam);
        const char *wl =
            std::string(fam) == "GRU" || std::string(fam) == "LSTM" ? kRnn
                                                                    : kCnn;
        m.push_back({k + ".host_s", "s", "lower", "sim", "host_s", wl});
        m.push_back({k + ".winst_per_s", "1/s", "higher", "sim", "host_s",
                     wl});
    }
    for (const char *net : kServeNets) {
        m.push_back({"serialize." + std::string(net) + ".ms", "ms", "lower",
                     "serve.protocol", "host_s", kServe});
        m.push_back({"response." + std::string(net) + ".kb", "KB", "lower",
                     "serve.protocol", "host_s", kServe});
    }
    return m;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"setup_s", "s", "lower", "", "", ""},
        {"host_s", "s", "lower", "", "", ""},
        {"peak_rss_mb", "MB", "lower", "", "", ""},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = buildPerLayer();
    return m;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (const char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

std::string
familyKey(const std::string &family)
{
    std::string k = family;
    for (char &c : k)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return k;
}

} // namespace perfbench
