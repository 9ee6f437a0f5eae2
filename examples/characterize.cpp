/**
 * @file
 * Characterize: the suite's command-line workhorse.
 *
 *     characterize [network] [--platform GP102|GK210|TX1]
 *                  [--sched gto|lrr|tlv] [--l1 KB] [--quant] [--exact]
 *
 * Runs one network (default: all seven) under the chosen configuration
 * and prints the full characterization: per-layer-type time, instruction
 * and data-type mixes, stall breakdown, cache statistics, power and
 * footprint — the per-network view behind every figure in the paper.
 *
 * All requested networks are submitted to the process-wide rt::Engine
 * up front, so they simulate concurrently while the reports print in
 * order.
 */

#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "profiler/profiler.hh"
#include "runtime/engine.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

namespace {

using namespace tango;

struct Options
{
    std::vector<std::string> nets;
    std::string platform = "GP102";
    sim::SchedPolicy sched = sim::SchedPolicy::GTO;
    int l1Kb = -1;
    bool quant = false;
    bool exact = false;
};

void
usage()
{
    std::cout
        << "usage: characterize [network ...] [--platform GP102|GK210|"
           "TX1]\n"
           "                    [--sched gto|lrr|tlv] [--l1 KB] [--quant]"
           " [--exact]\n"
           "networks: gru lstm cifarnet alexnet squeezenet resnet vggnet"
           " mobilenet\n";
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--platform") {
            const char *v = next();
            if (!v)
                return false;
            opt.platform = v;
        } else if (a == "--sched") {
            const char *v = next();
            if (!v)
                return false;
            const std::string s = v;
            opt.sched = s == "lrr"   ? sim::SchedPolicy::LRR
                        : s == "tlv" ? sim::SchedPolicy::TLV
                                     : sim::SchedPolicy::GTO;
        } else if (a == "--l1") {
            const char *v = next();
            if (!v)
                return false;
            opt.l1Kb = std::atoi(v);
        } else if (a == "--quant") {
            opt.quant = true;
        } else if (a == "--exact") {
            opt.exact = true;
        } else if (a == "--help" || a == "-h") {
            return false;
        } else {
            opt.nets.push_back(a);
        }
    }
    if (opt.nets.empty())
        opt.nets = nn::models::allNames();
    return true;
}

/** The engine job for one characterization point. */
rt::JobSpec
pointSpec(const Options &opt, const std::string &name)
{
    rt::JobSpec spec{name};
    spec.platform = opt.platform;
    spec.sched = opt.sched;
    spec.policy = opt.exact ? "exact" : "bench";
    // The JobSpec default L1D (64 KB) unless --l1 overrides it.
    if (opt.l1Kb >= 0)
        spec.l1dBytes = static_cast<uint32_t>(opt.l1Kb) * 1024;
    return spec;
}

/** Enqueue one network's simulation on the engine. */
std::shared_future<const rt::NetRun *>
submitOne(const Options &opt, const std::string &name)
{
    const rt::JobSpec spec = pointSpec(opt, name);
    if (!opt.quant || name == "gru" || name == "lstm")
        return rt::Engine::global().submitJob(spec).future;

    // Quantized weights are not part of the standard key space: submit
    // a custom job under an extended cache key.
    return rt::Engine::global().submit(
        spec.cacheKey().str + "+quant", spec.gpuConfig(),
        [name, policy = spec.policy](sim::Gpu &gpu) {
            nn::AnyModel model = nn::models::buildAny(name);
            nn::initWeights(model);
            nn::quantizeConvWeights(model.cnn());
            rt::Runtime rtm(gpu);
            return rtm.run(model, rt::RunPolicy::named(policy));
        });
}

void
characterize(const Options &opt, const std::string &name,
             const rt::NetRun &run)
{
    const sim::GpuConfig cfg = pointSpec(opt, name).gpuConfig();

    std::cout << "\n##### " << name << " on " << cfg.name
              << " (l1=" << cfg.l1dBytes / 1024
              << "KB, sched=" << sim::schedName(cfg.scheduler)
              << (opt.quant ? ", quantized" : "") << ")\n";
    rt::printRunSummary(std::cout, run);
    rt::printSeries(std::cout, "time per layer type",
                    prof::layerTimeBreakdown(run), true);
    rt::printSeries(std::cout, "top operations",
                    prof::topN(prof::opBreakdown(run.totals), 10), true);
    rt::printSeries(std::cout, "data types",
                    prof::dtypeBreakdown(run.totals), true);
    rt::printSeries(std::cout, "stall cycles",
                    prof::stallBreakdown(run.totals), true);

    Table mem("memory system");
    mem.header({"metric", "value"});
    const double l1a = run.totals.get("mem.l1d.accesses");
    const double l2a = run.totals.get("mem.l2.accesses");
    mem.row({"L1D accesses", Table::num(l1a, 0)});
    mem.row({"L1D miss ratio",
             Table::pct(l1a > 0 ? run.totals.get("mem.l1d.misses") / l1a
                                : 0.0)});
    mem.row({"L2 accesses", Table::num(l2a, 0)});
    mem.row({"L2 miss ratio",
             Table::pct(l2a > 0 ? run.totals.get("mem.l2.misses") / l2a
                                : 0.0)});
    mem.row({"DRAM bursts", Table::num(run.totals.get("dram.accesses"),
                                       0)});
    mem.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 1;
    }
    // Submit everything first: the engine simulates the networks in
    // parallel while the reports stream out in request order.
    std::vector<std::shared_future<const rt::NetRun *>> futures;
    for (const auto &name : opt.nets)
        futures.push_back(submitOne(opt, name));
    for (size_t i = 0; i < opt.nets.size(); i++)
        characterize(opt, opt.nets[i], *futures[i].get());
    std::cout << "\ncharacterize: OK\n";
    return 0;
}
