/**
 * @file
 * Fig 5 reproduction: average power breakdown per micro-architecture
 * component for every network.
 *
 * Paper shape to hold: the key consumers are the register file (RFP),
 * the L2 cache (L2CP) and idle-core leakage (IDLE_COREP).
 */

#include "bench_util.hh"

#include "sim/power.hh"

namespace {

using namespace tango;

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    const auto nets = nn::models::allNames();

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nets)
        keys.push_back({net});
    bench::engine().prefetch(keys);

    std::vector<std::string> compNames;
    for (size_t c = 0; c < sim::numPowerComps; c++) {
        compNames.push_back(
            sim::powerCompName(static_cast<sim::PowerComp>(c)));
    }

    std::vector<std::vector<double>> values;   // [net][component]
    for (const auto &net : nets) {
        const rt::NetRun &run = bench::engine().run({net});
        // Recompute the component breakdown from the merged counters.
        const sim::GpuConfig cfg = rt::JobSpec{net}.gpuConfig();
        double gpuCycles = 0.0;
        for (const auto &l : run.layers)
            gpuCycles += l.gpuCycles();
        const sim::PowerBreakdown pb = sim::computeBreakdown(
            run.totals, cfg, gpuCycles, cfg.numSms);
        const double total = pb.totalJ();
        std::vector<double> col;
        for (size_t c = 0; c < sim::numPowerComps; c++)
            col.push_back(total > 0 ? pb.energyJ[c] / total : 0.0);
        values.push_back(col);

        // Headline: RF + L2 + idle-core share.
        const double key =
            (pb.energyJ[size_t(sim::PowerComp::RF)] +
             pb.energyJ[size_t(sim::PowerComp::L2C)] +
             pb.energyJ[size_t(sim::PowerComp::IDLE_CORE)]) /
            (total > 0 ? total : 1.0);
        bench::registerValue("fig05/" + net + "/rf_l2_idle_share", "share",
                             key);
    }

    rt::printStacked(std::cout,
                     "Fig 5: breakdown of average power w.r.t. HW "
                     "components",
                     nets, compNames, values, /*as_percent=*/true);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
