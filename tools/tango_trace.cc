/**
 * @file
 * tango-trace — run a network under tracing and export a Chrome
 * trace-event / Perfetto-compatible JSON timeline.
 *
 *   tango-trace [options] [<policy>] <network>...
 *
 * The first positional argument may name a RunPolicy ("bench", "mem",
 * "stall", "exact", or the alias "fig" for the policy the figure benches
 * use); the remaining positionals are networks ("alexnet", "gru", ...,
 * case-insensitive).  Each network is simulated once with a trace sink
 * installed and written to <net>.trace.json — open it at
 * https://ui.perfetto.dev or chrome://tracing.
 *
 * Event volume is controlled by --events (span/counter events only by
 * default, so the default ring never overflows), --window (counter
 * sample period) and --max-events (per-core ring capacity).  Drops are
 * never silent: the exact dropped-event count is printed and recorded in
 * the JSON's otherData.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "common/logging.hh"
#include "nn/models/models.hh"
#include "runtime/job.hh"
#include "sim/gpu.hh"
#include "trace/export_chrome.hh"
#include "trace/trace.hh"

namespace {

using namespace tango;

struct Options
{
    tools::JobSpecArgs args;
    std::string outDir = ".";
    uint64_t window = 4096;
    uint32_t maxEvents = 1u << 20;
    uint32_t mask = trace::kDefaultEvents;
    bool summary = false;
    std::vector<std::string> nets;
};

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-trace [options] [<policy>] <network>...\n"
        "\n"
        "networks: %s\n"
        "policies: bench (alias: fig), mem, stall, exact\n"
        "\n"
        "options:\n"
        "  --events LIST    comma list of event groups to record:\n"
        "                   default | all | kernel | layer | occupancy |\n"
        "                   mshr | stall | cache | dram\n"
        "                   (default: kernel,layer,occupancy,mshr)\n"
        "  --window N       counter sample period in cycles (default 4096)\n"
        "  --max-events N   per-core ring capacity, rounded up to a power\n"
        "                   of two (default %u)\n"
        "  --platform P     GP102 | GK210 | TX1 (default GP102)\n"
        "  --out DIR        output directory (default .)\n"
        "  --summary        also print a launch-serving summary line\n"
        "                   (replayed vs fully simulated launches)\n"
        "  -h, --help       this message\n",
        tools::knownNetworksLine().c_str(), 1u << 20);
}

using tools::lower;

/** @return the mask bits of one --events group name, or 0 if unknown. */
uint32_t
eventGroupMask(const std::string &group)
{
    using trace::EventKind;
    using trace::kindBit;
    if (group == "default")
        return trace::kDefaultEvents;
    if (group == "all")
        return trace::kAllEvents;
    if (group == "kernel")
        return kindBit(EventKind::KernelBegin) |
               kindBit(EventKind::KernelEnd);
    if (group == "layer")
        return kindBit(EventKind::LayerBegin) |
               kindBit(EventKind::LayerEnd);
    if (group == "occupancy" || group == "occ")
        return kindBit(EventKind::OccupancySample);
    if (group == "mshr")
        return kindBit(EventKind::MshrSample);
    if (group == "stall")
        return kindBit(EventKind::StallTransition);
    if (group == "cache")
        return kindBit(EventKind::CacheMiss) |
               kindBit(EventKind::CacheFill);
    if (group == "dram")
        return kindBit(EventKind::DramAccess);
    return 0;
}

uint32_t
parseEvents(const std::string &list)
{
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string group = lower(
            list.substr(pos, comma == std::string::npos ? comma
                                                        : comma - pos));
        if (!group.empty()) {
            const uint32_t bits = eventGroupMask(group);
            if (!bits)
                fatal("unknown --events group '%s'", group.c_str());
            mask |= bits;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (!mask)
        fatal("--events selected no event kinds");
    return mask;
}

using tools::parseUint;

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> positional;
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
        } else if (arg == "--events") {
            opt.mask = parseEvents(value());
        } else if (arg == "--window") {
            opt.window = parseUint("--window", value());
            if (opt.window == 0)
                fatal("--window must be > 0");
        } else if (arg == "--max-events") {
            const uint64_t n = parseUint("--max-events", value());
            if (n == 0 || n > (1u << 28))
                fatal("--max-events must be in [1, %u]", 1u << 28);
            opt.maxEvents = static_cast<uint32_t>(n);
        } else if (arg == "--platform") {
            opt.args.platform = value();
            tools::validatePlatform(opt.args.platform);
        } else if (arg == "--out") {
            opt.outDir = value();
        } else if (arg == "--summary") {
            opt.summary = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(stderr);
            fatal("unknown option '%s'", arg.c_str());
        } else {
            positional.push_back(arg);
        }
    }

    if (positional.empty()) {
        usage(stderr);
        fatal("no network given");
    }
    // A leading positional naming a policy selects it ("fig" is the
    // policy of the paper-figure benches, i.e. "bench").
    const tools::NetSelection sel = tools::parseNetArgs(positional);
    opt.args.policy = sel.policy;
    opt.args.trace = true;
    opt.nets = sel.nets;
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const sim::GpuConfig cfg =
        tools::makeJobSpec(opt.nets[0], opt.args).gpuConfig();
    sim::Gpu gpu(cfg);

    int failures = 0;
    for (const std::string &net : opt.nets) {
        trace::RingOptions ropt;
        ropt.capacity = opt.maxEvents;
        ropt.mask = opt.mask;
        ropt.samplePeriod = opt.window;
        trace::RingSink sink(ropt);

        rt::NetRun run;
        {
            // Installed for this thread only, and removed before export
            // so the exporter's own work cannot be traced.
            trace::ScopedSink install(&sink);
            run = tools::runJobOrDie(gpu, tools::makeJobSpec(net, opt.args));
        }

        const std::string path = opt.outDir + "/" + net + ".trace.json";
        trace::ChromeExportOptions eopt;
        eopt.coreClockGhz = cfg.coreClockGhz;
        eopt.label = net + "/" + opt.args.platform + "/" + opt.args.policy;
        if (!trace::writeChromeTrace(sink, path, eopt)) {
            std::fprintf(stderr, "tango-trace: cannot write '%s'\n",
                         path.c_str());
            failures++;
            continue;
        }

        uint64_t kernels = 0;
        for (const auto &l : run.layers)
            kernels += l.kernels.size();
        std::printf("%-12s policy=%s  layers=%zu kernels=%llu  "
                    "sim_time=%.3gs\n",
                    net.c_str(), opt.args.policy.c_str(), run.layers.size(),
                    static_cast<unsigned long long>(kernels),
                    run.totalTimeSec);
        if (opt.summary) {
            // How the launches were served by the memoization layer
            // (sim/gpu.cc): replayed = steady-state launches whose
            // statistics were spliced from cache.
            std::printf("  launches: replayed=%llu simulated=%llu\n",
                        static_cast<unsigned long long>(
                            run.totals.get("mem.replayed_launches")),
                        static_cast<unsigned long long>(
                            run.totals.get("mem.simulated_launches")));
        }
        std::printf("  events recorded: %llu   dropped: %llu\n",
                    static_cast<unsigned long long>(sink.recorded()),
                    static_cast<unsigned long long>(sink.dropped()));
        for (const auto &[kind, count] : sink.kindCounts()) {
            std::printf("    %-16s %llu\n", trace::eventKindName(kind),
                        static_cast<unsigned long long>(count));
        }
        if (sink.dropped() > 0) {
            std::printf("  warning: ring full (capacity %u) — raise "
                        "--max-events or narrow --events\n",
                        sink.capacity());
        }
        std::printf("  wrote %s\n", path.c_str());
    }
    return failures == 0 ? 0 : 1;
}
