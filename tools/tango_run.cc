/**
 * @file
 * tango-run — run networks once and print their simulated statistics:
 * the minimal single-process entry point for wall-time measurements
 * (scripts/perf_baseline.sh) and quick ad-hoc runs.
 *
 *   tango-run [options] [<policy>] <network>...
 *
 * The first positional argument may name a RunPolicy ("bench", "mem",
 * "stall", "exact"); the remaining positionals are networks.  Unlike the
 * figure benches there is no result cache and no multi-config sweep: the
 * cost you measure is the cost of simulating exactly what you asked for.
 *
 * --seq-len overrides the RNN sequence length (default
 * nn::models::kDefaultRnnSeqLen), which is how the perf baseline makes
 * the GRU/LSTM steady state long enough to time meaningfully.
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

namespace {

using namespace tango;

struct Options
{
    tools::JobSpecArgs args;
    std::vector<std::string> nets;
};

void
usage(FILE *to)
{
    std::fprintf(to,
        "usage: tango-run [options] [<policy>] <network>...\n"
        "\n"
        "networks: %s\n"
        "policies: bench (alias: fig), mem, stall, exact (default bench)\n"
        "\n"
        "options:\n"
        "  --seq-len N      RNN sequence length (default %u; ignored for\n"
        "                   CNNs)\n"
        "  --platform P     GP102 | GK210 | TX1 (default GP102)\n"
        "  --tier T         accuracy tier: sim | estimate\n"
        "                   (default $TANGO_TIER, else sim)\n"
        "  --functional     upload weights and compute real outputs\n"
        "  -h, --help       this message\n"
        "\n"
        "TANGO_NO_MEMO=1 disables steady-state launch memoization.\n",
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
        } else if (arg == "--seq-len") {
            const uint64_t n = tools::parseUint("--seq-len", value());
            if (n == 0 || n > (1u << 20))
                fatal("--seq-len must be in [1, %u]", 1u << 20);
            opt.args.seqLen = static_cast<uint32_t>(n);
        } else if (arg == "--platform") {
            opt.args.platform = value();
            tools::validatePlatform(opt.args.platform);
        } else if (arg == "--tier") {
            opt.args.tier = tools::lower(value());
        } else if (arg == "--functional") {
            opt.args.functional = true;
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
    opt.nets = sel.nets;
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    sim::Gpu gpu(tools::makeJobSpec(opt.nets[0], opt.args).gpuConfig());

    for (const std::string &net : opt.nets) {
        const rt::JobSpec spec = tools::makeJobSpec(net, opt.args);
        const rt::NetRun run = tools::runJobOrDie(gpu, spec);

        uint64_t kernels = 0;
        for (const auto &l : run.layers)
            kernels += l.kernels.size();
        std::printf("%-12s policy=%s  kernels=%llu  sim_time=%.6gs  "
                    "energy=%.6gJ\n",
                    net.c_str(), opt.args.policy.c_str(),
                    static_cast<unsigned long long>(kernels),
                    run.totalTimeSec, run.totalEnergyJ);
        std::printf("  launches: replayed=%llu simulated=%llu\n",
                    static_cast<unsigned long long>(
                        run.totals.get("mem.replayed_launches")),
                    static_cast<unsigned long long>(
                        run.totals.get("mem.simulated_launches")));
    }
    return 0;
}
