/**
 * @file
 * tango-load — load generator and benchmark client for tango-serve.
 *
 *   tango-load --port N [options]
 *
 * Two phases against a running daemon:
 *
 *  - cold: every distinct job (nets x policies) once, sequentially, on
 *    one connection — the price of actually simulating;
 *  - warm: --conns connections each firing --requests requests, jobs
 *    drawn zipf-distributed (deterministic seed) from the same list —
 *    the cache/dedup serving rate.
 *
 * Prints a summary and, with --json, writes the BENCH_serve.json record
 * (cold/warm QPS, p50/p99 latency, final server stats) that
 * scripts/perf_baseline.sh publishes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/scrape.hh"
#include "nn/models/models.hh"
#include "serve/protocol.hh"

namespace {

using namespace tango;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    unsigned conns = 4;
    unsigned requests = 50;     ///< per connection, warm phase
    std::vector<std::string> nets;
    std::vector<std::string> policies = {"bench"};
    std::vector<std::string> tiers = {"sim"};
    std::string platform = "GP102";
    uint64_t seed = 1;
    bool skipCold = false;
    std::string jsonPath;
};

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-load --port N [options]\n"
        "\n"
        "options:\n"
        "  --host H         server address (default 127.0.0.1)\n"
        "  --port N         server port (required)\n"
        "  --conns N        warm-phase connections (default 4)\n"
        "  --requests M     warm requests per connection (default 50)\n"
        "  --nets LIST      comma list of networks (default: all seven)\n"
        "  --policies LIST  comma list of policies (default: bench)\n"
        "  --tier LIST      comma list of accuracy tiers to mix into the\n"
        "                   job list: sim | estimate (default: sim)\n"
        "  --platform P     GP102 | GK210 | TX1 (default GP102)\n"
        "  --seed N         zipf sampling seed (default 1)\n"
        "  --skip-cold      skip the cold phase (server already warm)\n"
        "  --json FILE      write the benchmark record to FILE\n"
        "  -h, --help       this message\n");
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string item = list.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        if (!item.empty())
            out.push_back(tools::lower(item));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s expects a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--host") {
            opt.host = value();
        } else if (arg == "--port") {
            opt.port = static_cast<uint16_t>(
                tools::parseUint("--port", value()));
        } else if (arg == "--conns") {
            opt.conns = static_cast<unsigned>(
                tools::parseUint("--conns", value()));
            if (opt.conns == 0)
                fatal("--conns must be > 0");
        } else if (arg == "--requests") {
            opt.requests = static_cast<unsigned>(
                tools::parseUint("--requests", value()));
        } else if (arg == "--nets") {
            opt.nets = splitList(value());
        } else if (arg == "--policies") {
            opt.policies = splitList(value());
        } else if (arg == "--tier") {
            opt.tiers = splitList(value());
        } else if (arg == "--platform") {
            opt.platform = value();
            tools::validatePlatform(opt.platform);
        } else if (arg == "--seed") {
            opt.seed = tools::parseUint("--seed", value());
        } else if (arg == "--skip-cold") {
            opt.skipCold = true;
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else {
            usage(stderr);
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (opt.port == 0) {
        usage(stderr);
        fatal("--port is required");
    }
    if (opt.nets.empty())
        opt.nets = nn::models::allNames();
    if (opt.policies.empty())
        fatal("--policies selected nothing");
    if (opt.tiers.empty())
        fatal("--tier selected nothing");
    for (const std::string &tier : opt.tiers) {
        rt::Tier t;
        if (!rt::tierFromName(tier, t))
            fatal("unknown tier '%s' (known: sim, estimate)",
                  tier.c_str());
    }
    return opt;
}

/** Zipf(s=1) sampler over [0, n): rank r with weight 1/(r+1). */
class Zipf
{
  public:
    explicit Zipf(size_t n)
    {
        cdf_.reserve(n);
        double sum = 0.0;
        for (size_t r = 0; r < n; r++) {
            sum += 1.0 / double(r + 1);
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }
    size_t sample(Rng &rng) const
    {
        const double u = rng.uniform();
        return size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

struct WarmShard
{
    unsigned sent = 0;
    unsigned ok = 0;
    unsigned rejected = 0;   ///< server said "reject" (queue full/draining)
    unsigned errors = 0;     ///< any other failed result (sim threw, ...)
    std::vector<double> latenciesMs;
    std::vector<size_t> tierIdx;   ///< per request, parallel to latenciesMs
    std::vector<bool> okFlags;     ///< per request, parallel to latenciesMs
    std::string error;   ///< transport failure, if any
};

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * double(sorted.size() - 1) + 0.5));
    return sorted[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    // The job list: nets x policies x tiers, in rank order for the zipf
    // draw (tier varies fastest, so the head of the zipf still spans
    // every tier when several are mixed).
    std::vector<rt::JobSpec> jobs;
    std::vector<size_t> jobTier;   ///< index into opt.tiers, per job
    for (const std::string &net : opt.nets) {
        for (const std::string &policy : opt.policies) {
            for (size_t t = 0; t < opt.tiers.size(); t++) {
                tools::JobSpecArgs args;
                args.policy = policy;
                args.platform = opt.platform;
                args.tier = opt.tiers[t];
                jobs.push_back(tools::makeJobSpec(net, args));
                jobTier.push_back(t);
            }
        }
    }

    // ---------------------------------------------------------- cold
    struct TierAgg
    {
        unsigned coldOk = 0;
        double coldSec = 0.0;
        unsigned warmCount = 0;
        unsigned warmOk = 0;
        std::vector<double> warmLatMs;
    };
    std::vector<TierAgg> tierAgg(opt.tiers.size());

    double coldSec = 0.0;
    unsigned coldOk = 0;
    if (!opt.skipCold) {
        serve::Client client;
        std::string err;
        if (!client.connect(opt.host, opt.port, &err))
            fatal("tango-load: %s", err.c_str());
        const auto t0 = Clock::now();
        for (size_t j = 0; j < jobs.size(); j++) {
            const rt::JobSpec &job = jobs[j];
            rt::JobResult res;
            const auto c0 = Clock::now();
            if (!client.run(job, res, &err))
                fatal("tango-load: cold %s: %s",
                      job.cacheKey().str.c_str(), err.c_str());
            TierAgg &agg = tierAgg[jobTier[j]];
            agg.coldSec +=
                std::chrono::duration<double>(Clock::now() - c0).count();
            if (res.ok) {
                coldOk++;
                agg.coldOk++;
            } else {
                warn("cold %s: %s", job.cacheKey().str.c_str(),
                     res.error.c_str());
            }
        }
        coldSec = std::chrono::duration<double>(Clock::now() - t0).count();
        std::printf("cold:  %u/%zu jobs in %.3fs  (%.2f QPS)\n", coldOk,
                    jobs.size(), coldSec,
                    coldSec > 0 ? double(coldOk) / coldSec : 0.0);
    }

    // ---------------------------------------------------------- warm
    const Zipf zipf(jobs.size());
    std::vector<WarmShard> shards(opt.conns);
    std::vector<std::thread> threads;
    const auto w0 = Clock::now();
    for (unsigned t = 0; t < opt.conns; t++) {
        threads.emplace_back([&, t] {
            WarmShard &shard = shards[t];
            serve::Client client;
            std::string err;
            if (!client.connect(opt.host, opt.port, &err)) {
                shard.error = err;
                return;
            }
            Rng rng(opt.seed + t * 0x9e3779b9ULL);
            for (unsigned i = 0; i < opt.requests; i++) {
                const size_t pick = zipf.sample(rng);
                const rt::JobSpec &job = jobs[pick];
                rt::JobResult res;
                const auto r0 = Clock::now();
                if (!client.run(job, res, &err)) {
                    shard.error = err;
                    return;
                }
                shard.sent++;
                shard.latenciesMs.push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - r0)
                        .count());
                shard.tierIdx.push_back(jobTier[pick]);
                shard.okFlags.push_back(res.ok);
                if (res.ok)
                    shard.ok++;
                else if (res.served == "reject")
                    shard.rejected++;
                else
                    shard.errors++;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    const double warmSec =
        std::chrono::duration<double>(Clock::now() - w0).count();

    unsigned warmSent = 0, warmOk = 0, warmRejected = 0, warmErrors = 0;
    std::vector<double> latencies;
    for (const WarmShard &s : shards) {
        if (!s.error.empty())
            fatal("tango-load: warm: %s", s.error.c_str());
        warmSent += s.sent;
        warmOk += s.ok;
        warmRejected += s.rejected;
        warmErrors += s.errors;
        latencies.insert(latencies.end(), s.latenciesMs.begin(),
                         s.latenciesMs.end());
        for (size_t i = 0; i < s.tierIdx.size(); i++) {
            TierAgg &agg = tierAgg[s.tierIdx[i]];
            agg.warmCount++;
            if (s.okFlags[i])
                agg.warmOk++;
            agg.warmLatMs.push_back(s.latenciesMs[i]);
        }
    }
    std::sort(latencies.begin(), latencies.end());
    const double warmQps = warmSec > 0 ? double(warmSent) / warmSec : 0.0;
    const double p50 = percentileSorted(latencies, 0.50);
    const double p99 = percentileSorted(latencies, 0.99);
    std::printf("warm:  %u requests (%u ok, %u rejected, %u errors) on "
                "%u conns in %.3fs  (%.1f QPS, p50 %.3fms, p99 %.3fms)\n",
                warmSent, warmOk, warmRejected, warmErrors, opt.conns,
                warmSec, warmQps, p50, p99);
    if (opt.tiers.size() > 1) {
        for (size_t t = 0; t < opt.tiers.size(); t++) {
            TierAgg &agg = tierAgg[t];
            std::sort(agg.warmLatMs.begin(), agg.warmLatMs.end());
            std::printf("  tier %-8s warm %u ok/%u  p50 %.3fms  "
                        "p99 %.3fms\n",
                        opt.tiers[t].c_str(), agg.warmOk, agg.warmCount,
                        percentileSorted(agg.warmLatMs, 0.50),
                        percentileSorted(agg.warmLatMs, 0.99));
        }
    }

    // Final server-side view (dedup/hit counters live there), plus the
    // full Prometheus scrape for the benchmark record.
    std::string statsJson, metricsText;
    {
        serve::Client client;
        std::string err;
        if (client.connect(opt.host, opt.port, &err)) {
            client.stats(statsJson, &err);
            client.metrics(metricsText, &err);
        }
    }

    if (!opt.jsonPath.empty()) {
        std::string out;
        json::ObjWriter o(out);
        o.str("bench", "serve");
        o.u64("jobs", jobs.size());
        o.key("cold");
        {
            json::ObjWriter c(out);
            c.boolean("skipped", opt.skipCold);
            c.u64("ok", coldOk);
            c.num("seconds", coldSec);
            c.num("qps", coldSec > 0 ? double(coldOk) / coldSec : 0.0);
            c.close();
        }
        o.key("warm");
        {
            json::ObjWriter w(out);
            w.u64("connections", opt.conns);
            w.u64("requests", warmSent);
            w.u64("ok", warmOk);
            w.u64("rejected", warmRejected);
            w.u64("errors", warmErrors);
            w.num("seconds", warmSec);
            w.num("qps", warmQps);
            w.num("p50_ms", p50);
            w.num("p99_ms", p99);
            w.close();
        }
        if (!opt.skipCold && coldSec > 0) {
            o.num("warm_over_cold_qps",
                  coldOk ? warmQps / (double(coldOk) / coldSec) : 0.0);
        }
        // Per-tier cold/warm breakdown, side by side.  Always present
        // (even for the default single-tier run) so downstream guards
        // can read one shape.
        o.key("tiers");
        {
            std::string &t_out = out;
            t_out += '{';
            for (size_t t = 0; t < opt.tiers.size(); t++) {
                if (t)
                    t_out += ',';
                json::appendEscaped(t_out, opt.tiers[t]);
                t_out += ':';
                TierAgg &agg = tierAgg[t];
                std::sort(agg.warmLatMs.begin(), agg.warmLatMs.end());
                json::ObjWriter to(t_out);
                to.key("cold");
                {
                    json::ObjWriter c(t_out);
                    c.boolean("skipped", opt.skipCold);
                    c.u64("ok", agg.coldOk);
                    c.num("seconds", agg.coldSec);
                    c.num("qps", agg.coldSec > 0
                                     ? double(agg.coldOk) / agg.coldSec
                                     : 0.0);
                    c.close();
                }
                to.key("warm");
                {
                    json::ObjWriter w(t_out);
                    w.u64("requests", agg.warmCount);
                    w.u64("ok", agg.warmOk);
                    w.num("qps", warmSec > 0
                                     ? double(agg.warmCount) / warmSec
                                     : 0.0);
                    w.num("p50_ms",
                          percentileSorted(agg.warmLatMs, 0.50));
                    w.num("p99_ms",
                          percentileSorted(agg.warmLatMs, 0.99));
                    w.close();
                }
                to.close();
            }
            t_out += '}';
        }
        if (!statsJson.empty()) {
            o.key("server_stats");
            out += statsJson;
        }
        // The daemon's final metrics scrape, flattened to one value per
        // series ('name{k="v"}' keys) so the record carries the same
        // counters tango-top renders live.
        metrics::Scrape scrape;
        if (!metricsText.empty() &&
            metrics::Scrape::parse(metricsText, scrape)) {
            o.key("server_metrics");
            out += '{';
            bool first = true;
            for (const metrics::Sample &s : scrape.samples()) {
                if (!first)
                    out += ',';
                first = false;
                std::string series = s.name;
                if (!s.labels.empty()) {
                    series += '{';
                    for (size_t l = 0; l < s.labels.size(); l++) {
                        if (l)
                            series += ',';
                        series += s.labels[l].first;
                        series += "=\"";
                        series += s.labels[l].second;
                        series += '"';
                    }
                    series += '}';
                }
                json::appendEscaped(out, series);
                out += ':';
                json::appendDouble(out, s.value);
            }
            out += '}';
        }
        o.close();
        std::ofstream f(opt.jsonPath, std::ios::trunc);
        if (!f)
            fatal("cannot write '%s'", opt.jsonPath.c_str());
        f << out << "\n";
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    return 0;
}
