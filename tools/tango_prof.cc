/**
 * @file
 * tango-prof — per-PC hotspot attribution profiler.
 *
 *   tango-prof [options] [<policy>] <network>...
 *
 * Runs each network with SimPolicy::profile on: the simulator charges
 * issued cycles, stall cycles, cache misses and DRAM traffic to every
 * program counter, and the kernel DSL's statement labels (conv.mac,
 * fc.mac, gru.gate_sigmoid, ...) roll the counters up into a hotspot
 * table.  Memoized steady-state replays splice the armed launch's cached
 * profile, so long RNN sequences profile at replay speed; their share of
 * each hotspot shows up in the `replayed` column.
 *
 * --annotate <kernel> prints a perf-annotate style disassembly listing
 * with per-line counters; --folded <file> writes folded stacks
 * (`net;layer;kernel;label cycles`) for the usual flamegraph tools.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "common/logging.hh"
#include "nn/models/models.hh"
#include "profiler/profiler.hh"
#include "runtime/job.hh"
#include "sim/gpu.hh"

namespace {

using namespace tango;

struct Options
{
    tools::JobSpecArgs args;
    size_t top = 20;
    std::string annotate;      // kernel name; empty = off
    std::string foldedPath;    // output file; empty = off
    std::vector<std::string> nets;
};

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-prof [options] [<policy>] <network>...\n"
        "\n"
        "networks: %s\n"
        "policies: bench (alias: fig), mem, stall, exact\n"
        "\n"
        "options:\n"
        "  --top N          hotspot rows to print (default 20)\n"
        "  --annotate K     annotated disassembly of kernel K\n"
        "  --folded FILE    write flamegraph folded stacks to FILE\n"
        "  --seq-len N      RNN sequence length (default %u)\n"
        "  --platform P     GP102 | GK210 | TX1 (default GP102)\n"
        "  -h, --help       this message\n"
        "\n"
        "TANGO_PROFILE=1 forces profiling on in any tool; TANGO_NO_MEMO=1\n"
        "disables steady-state launch memoization (no replayed column).\n",
        tools::knownNetworksLine().c_str(),
        nn::models::kDefaultRnnSeqLen);
}

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
        } else if (arg == "--top") {
            opt.top = static_cast<size_t>(
                tools::parseUint("--top", value()));
            if (opt.top == 0)
                fatal("--top must be > 0");
        } else if (arg == "--annotate") {
            opt.annotate = value();
        } else if (arg == "--folded") {
            opt.foldedPath = value();
        } else if (arg == "--seq-len") {
            const uint64_t n = tools::parseUint("--seq-len", value());
            if (n == 0 || n > (1u << 20))
                fatal("--seq-len must be in [1, %u]", 1u << 20);
            opt.args.seqLen = static_cast<uint32_t>(n);
        } else if (arg == "--platform") {
            opt.args.platform = value();
            tools::validatePlatform(opt.args.platform);
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
    const tools::NetSelection sel = tools::parseNetArgs(positional);
    opt.args.policy = sel.policy;
    opt.args.profile = true;
    opt.nets = sel.nets;
    return opt;
}

void
printHotspots(const rt::NetRun &run, size_t top)
{
    const std::vector<prof::Hotspot> rows = prof::hotspots(run);
    if (rows.empty()) {
        std::printf("  (no profiled kernels)\n");
        return;
    }
    double total = 0.0;
    for (const auto &h : rows)
        total += h.cycles;

    std::printf("  %-24s %-16s %9s %6s %12s %12s %9s %9s %8s\n",
                "kernel", "label", "cycles%", "repl%", "issued",
                "stall_cyc", "l1d_miss", "l2_miss", "dram_MB");
    size_t n = 0;
    for (const auto &h : rows) {
        if (n++ >= top)
            break;
        std::printf("  %-24s %-16s %8.2f%% %5.0f%% %12.5g %12.5g %9.4g "
                    "%9.4g %8.3g\n",
                    h.kernel.c_str(),
                    h.label.empty() ? "(unlabeled)" : h.label.c_str(),
                    total > 0 ? 100.0 * h.cycles / total : 0.0,
                    h.cycles > 0 ? 100.0 * h.replayedCycles / h.cycles : 0.0,
                    h.issued, h.stallCycles, h.l1dMisses, h.l2Misses,
                    h.dramBytes / 1e6);
    }
    if (rows.size() > top)
        std::printf("  ... %zu more rows (--top to widen)\n",
                    rows.size() - top);
}

void
printAnnotated(const rt::NetRun &run, const std::string &kernel)
{
    const std::vector<prof::AnnotatedLine> lines =
        prof::annotateKernel(run, kernel);
    if (lines.empty()) {
        std::printf("  --annotate: kernel '%s' not found in this run\n",
                    kernel.c_str());
        return;
    }
    std::printf("  annotated %s (%zu instructions):\n", kernel.c_str(),
                lines.size());
    std::printf("  %5s %-16s %12s %12s %9s %9s  %s\n", "pc", "label",
                "issued", "stall_cyc", "l1d_miss", "l2_miss", "instruction");
    for (const auto &l : lines) {
        std::printf("  %5u %-16s %12.5g %12.5g %9.4g %9.4g  %s\n", l.pc,
                    l.label.empty() ? "" : l.label.c_str(), l.issued,
                    l.stallCycles, l.l1dMisses, l.l2Misses, l.text.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    sim::Gpu gpu(tools::makeJobSpec(opt.nets[0], opt.args).gpuConfig());

    std::string folded;
    int failures = 0;
    for (const std::string &net : opt.nets) {
        const rt::NetRun run =
            tools::runJobOrDie(gpu, tools::makeJobSpec(net, opt.args));

        std::printf("%-12s policy=%s  sim_time=%.6gs  launches: "
                    "replayed=%llu simulated=%llu\n",
                    net.c_str(), opt.args.policy.c_str(), run.totalTimeSec,
                    static_cast<unsigned long long>(
                        run.totals.get("mem.replayed_launches")),
                    static_cast<unsigned long long>(
                        run.totals.get("mem.simulated_launches")));

        std::string why;
        if (!prof::checkProfileConsistency(run, &why)) {
            std::fprintf(stderr,
                         "tango-prof: profile consistency FAILED: %s\n",
                         why.c_str());
            failures++;
        }

        printHotspots(run, opt.top);
        if (!opt.annotate.empty())
            printAnnotated(run, opt.annotate);
        if (!opt.foldedPath.empty())
            folded += prof::foldedStacks(run);
    }

    if (!opt.foldedPath.empty()) {
        std::ofstream f(opt.foldedPath, std::ios::trunc);
        if (!f) {
            std::fprintf(stderr, "tango-prof: cannot write '%s'\n",
                         opt.foldedPath.c_str());
            return 1;
        }
        f << folded;
        std::printf("wrote %s\n", opt.foldedPath.c_str());
    }
    return failures == 0 ? 0 : 1;
}
