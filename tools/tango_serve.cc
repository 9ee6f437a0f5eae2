/**
 * @file
 * tango-serve — the simulation-as-a-service daemon.
 *
 *   tango-serve [options]
 *
 * Listens on TCP, speaks the length-prefixed JSON protocol of
 * serve/protocol.hh, and serves rt::JobSpec run requests from an
 * rt::Engine worker pool with a keyed result cache: identical jobs in
 * flight are deduplicated onto one simulation, repeats are cache hits,
 * and admission is bounded (--queue-max) so a request storm gets fast
 * "queue_full" rejects instead of an unbounded backlog.
 *
 * SIGTERM/SIGINT (or a client "shutdown" request) drains gracefully:
 * new run requests are refused with "draining", in-flight ones finish
 * and are answered, the disk spill is flushed, and the process exits 0.
 *
 * Observability: the "metrics" frame serves the process-wide registry
 * as a Prometheus scrape (watch it with tango-top), and
 * TANGO_METRICS_DUMP=<path>,<ms> additionally writes periodic JSON
 * snapshots for post-mortems.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "cli_common.hh"
#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "serve/server.hh"

namespace {

using namespace tango;

// The one thing a signal handler may do: poke the drain self-pipe.
volatile int g_drainFd = -1;

extern "C" void
onSignal(int)
{
    const int fd = g_drainFd;
    if (fd >= 0) {
        const char c = 'd';
        (void)!::write(fd, &c, 1);
    }
}

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-serve [options]\n"
        "\n"
        "options:\n"
        "  --host H         listen address (default 127.0.0.1)\n"
        "  --port N         TCP port; 0 = ephemeral (default 0)\n"
        "  --port-file F    write the bound port to F (for scripts)\n"
        "  --queue-max N    max simulations in flight before run\n"
        "                   requests are rejected (default 32)\n"
        "  --threads N      engine worker threads (default: cores)\n"
        "  --cache FILE     persistent result cache (JSON spill)\n"
        "  -h, --help       this message\n"
        "\n"
        "environment: TANGO_SERVE_HOST, TANGO_SERVE_PORT,\n"
        "TANGO_SERVE_QUEUE_MAX, TANGO_ENGINE_THREADS, TANGO_ENGINE_CACHE,\n"
        "TANGO_ENGINE_CACHE_MAX_MB (flags win over environment).\n"
        "TANGO_METRICS_DUMP=<path>,<ms> writes a periodic JSON metrics\n"
        "snapshot; TANGO_LOG_JSON=1 switches log lines to JSON.  A live\n"
        "Prometheus scrape is served on the \"metrics\" frame (tango-top).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opt = serve::ServerOptions::fromEnv();
    std::string portFile;

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
            opt.host = value();
        } else if (arg == "--port") {
            opt.port = static_cast<uint16_t>(
                tools::parseUint("--port", value()));
        } else if (arg == "--port-file") {
            portFile = value();
        } else if (arg == "--queue-max") {
            opt.queueMax = static_cast<unsigned>(
                tools::parseUint("--queue-max", value()));
            if (opt.queueMax == 0)
                fatal("--queue-max must be > 0");
        } else if (arg == "--threads") {
            opt.engine.threads = static_cast<unsigned>(
                tools::parseUint("--threads", value()));
        } else if (arg == "--cache") {
            opt.engine.cachePath = value();
        } else {
            usage(stderr);
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    // Instantiate the registry up front so TANGO_METRICS_DUMP starts
    // its periodic snapshot writer even before the first request.
    metrics::Registry::global();

    serve::Server server(opt);
    std::string err;
    if (!server.start(&err))
        fatal("tango-serve: %s", err.c_str());

    if (!portFile.empty()) {
        FILE *f = std::fopen(portFile.c_str(), "w");
        if (!f)
            fatal("cannot write --port-file '%s'", portFile.c_str());
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    g_drainFd = server.drainFd();
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    inform("tango-serve: listening on %s:%u (queue-max %u, %u worker%s)",
           opt.host.c_str(), server.port(), opt.queueMax,
           server.engine().threads(),
           server.engine().threads() == 1 ? "" : "s");

    server.waitDrained();

    using ull = unsigned long long;
    const serve::Server::Counters &m = server.counters();
    const ull requests = m.requests.value();
    inform("tango-serve: drained after %llu request%s "
           "(%llu sim, %llu join, %llu mem, %llu disk, %llu rejected)",
           requests, requests == 1 ? "" : "s", ull(m.servedSim.value()),
           ull(m.servedJoin.value()), ull(m.servedMem.value()),
           ull(m.servedDisk.value()),
           ull(m.rejectedQueueFull.value() + m.rejectedDraining.value()));
    return 0;
}
