/**
 * @file
 * tango-top — live view of a running tango-serve daemon.
 *
 *   tango-top --port N [options]
 *
 * Polls the serve protocol's "metrics" frame (the process-wide
 * Prometheus scrape, see metrics/metrics.hh) and renders the serving
 * picture a screenful at a time: request rate, served/reject mix,
 * accuracy-tier mix, engine cache hit rate, queue depth and latency
 * percentiles.  Rates are computed from counter deltas between polls;
 * everything else is read straight off the scrape, so what tango-top
 * prints is exactly what any Prometheus-side consumer would ingest.
 *
 * --raw prints one raw scrape and exits — the scriptable escape hatch
 * (ci.sh uses it to assert cross-metric invariants after a load run).
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "cli_common.hh"
#include "common/logging.hh"
#include "metrics/scrape.hh"
#include "serve/protocol.hh"

namespace {

using namespace tango;

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-top --port N [options]\n"
        "\n"
        "options:\n"
        "  --host H         daemon address (default 127.0.0.1)\n"
        "  --port N         daemon TCP port (required)\n"
        "  --interval MS    poll period in milliseconds (default 2000)\n"
        "  --samples N      exit after N polls; 0 = until the daemon\n"
        "                   goes away (default 0)\n"
        "  --raw            print one raw Prometheus scrape and exit\n"
        "  --no-clear       append screens instead of redrawing in place\n"
        "  -h, --help       this message\n");
}

/** Counter families read every poll; deltas between polls give rates. */
struct Totals
{
    double runRequests = 0;
    double served = 0;
    double servedSim = 0, servedJoin = 0, servedMem = 0, servedDisk = 0;
    double rejects = 0;
    double tierSim = 0, tierEstimate = 0;
    double cacheHits = 0, cacheLookups = 0;
    double queueDepth = 0;
    metrics::HistogramSnapshot latency;
};

double
familyValue(const metrics::Scrape &s, const char *name, const char *key,
            const char *value)
{
    const metrics::Sample *sample = s.find(name, key, value);
    return sample ? sample->value : 0.0;
}

Totals
read(const metrics::Scrape &s)
{
    Totals t;
    t.runRequests = s.sum("tango_serve_run_requests_total");
    t.servedSim = familyValue(s, "tango_serve_served_total", "how", "sim");
    t.servedJoin = familyValue(s, "tango_serve_served_total", "how", "join");
    t.servedMem = familyValue(s, "tango_serve_served_total", "how", "mem");
    t.servedDisk = familyValue(s, "tango_serve_served_total", "how", "disk");
    t.served = s.sum("tango_serve_served_total");
    t.rejects = s.sum("tango_serve_rejects_total");
    t.tierSim = familyValue(s, "tango_serve_tier_total", "tier", "sim");
    t.tierEstimate =
        familyValue(s, "tango_serve_tier_total", "tier", "estimate");
    const double mem =
        familyValue(s, "tango_engine_cache_total", "result", "mem_hit");
    const double disk =
        familyValue(s, "tango_engine_cache_total", "result", "disk_hit");
    const double miss =
        familyValue(s, "tango_engine_cache_total", "result", "miss");
    t.cacheHits = mem + disk;
    t.cacheLookups = mem + disk + miss;
    t.queueDepth = familyValue(s, "tango_engine_inflight_sims", "", "");
    s.histogram("tango_serve_latency_us", t.latency);
    return t;
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

void
render(const Totals &now, const Totals &prev, double intervalSec,
       bool first)
{
    const double qps =
        first ? 0.0 : (now.runRequests - prev.runRequests) / intervalSec;
    const double served = now.served;
    std::printf("tango-top — %.1f req/s  (run requests %.0f, "
                "served %.0f, rejected %.0f)\n",
                qps, now.runRequests, served, now.rejects);
    std::printf("  served   sim %5.1f%%  join %5.1f%%  mem %5.1f%%  "
                "disk %5.1f%%\n",
                pct(now.servedSim, served), pct(now.servedJoin, served),
                pct(now.servedMem, served), pct(now.servedDisk, served));
    const double tiers = now.tierSim + now.tierEstimate;
    std::printf("  tier mix sim %5.1f%%  estimate %5.1f%%\n",
                pct(now.tierSim, tiers), pct(now.tierEstimate, tiers));
    std::printf("  cache    hit rate %5.1f%%  (%.0f of %.0f lookups)   "
                "queue depth %.0f\n",
                pct(now.cacheHits, now.cacheLookups), now.cacheHits,
                now.cacheLookups, now.queueDepth);
    const metrics::HistogramSnapshot &lat = now.latency;
    std::printf("  latency  p50 %.3f ms  p99 %.3f ms  (%" PRIu64
                " samples)\n",
                lat.percentileUpper(0.50) / 1000.0,
                lat.percentileUpper(0.99) / 1000.0, lat.count());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint64_t intervalMs = 2000;
    uint64_t samples = 0;
    bool raw = false;
    bool clear = true;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s expects a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--host") {
            host = value();
        } else if (arg == "--port") {
            port = static_cast<uint16_t>(
                tools::parseUint("--port", value()));
        } else if (arg == "--interval") {
            intervalMs = tools::parseUint("--interval", value());
            if (intervalMs == 0)
                fatal("--interval must be > 0");
        } else if (arg == "--samples") {
            samples = tools::parseUint("--samples", value());
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--no-clear") {
            clear = false;
        } else {
            usage(stderr);
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (port == 0) {
        usage(stderr);
        fatal("--port is required");
    }

    serve::Client client;
    std::string err;
    if (!client.connect(host, port, &err))
        fatal("tango-top: %s", err.c_str());

    if (raw) {
        std::string text;
        if (!client.metrics(text, &err))
            fatal("tango-top: %s", err.c_str());
        std::fputs(text.c_str(), stdout);
        return 0;
    }

    Totals prev;
    for (uint64_t n = 0; samples == 0 || n < samples; n++) {
        std::string text;
        if (!client.metrics(text, &err)) {
            // Normal end of a session: the daemon drained and closed.
            inform("tango-top: daemon gone (%s)", err.c_str());
            return 0;
        }
        metrics::Scrape scrape;
        if (!metrics::Scrape::parse(text, scrape, &err))
            fatal("tango-top: bad scrape: %s", err.c_str());
        const Totals now = read(scrape);
        if (clear)
            std::fputs("\033[H\033[2J", stdout);   // home + clear screen
        render(now, prev, double(intervalMs) / 1000.0, n == 0);
        prev = now;
        if (samples == 0 || n + 1 < samples)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
    }
    return 0;
}
