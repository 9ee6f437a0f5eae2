/**
 * @file
 * Fig 15 reproduction: execution time under the GTO, LRR and TLV warp
 * schedulers, normalized to GTO — the experiment that is only possible
 * on an architecture simulator (the paper's core motivation).
 *
 * Paper shape to hold (Observation 12): the RNNs barely react; the
 * conv-heavy CNNs run as fast or faster under plain round-robin (LRR)
 * because convolution's high data locality makes aggressive
 * memory-latency-tolerant scheduling unnecessary.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    const std::vector<sim::SchedPolicy> scheds = {
        sim::SchedPolicy::GTO, sim::SchedPolicy::LRR,
        sim::SchedPolicy::TLV};
    const std::vector<std::string> schedNames = {"GTO", "LRR", "TLV"};

    const auto nets = nn::models::allNames();

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nets) {
        for (auto sched : scheds) {
            rt::JobSpec key{net};
            key.sched = sched;
            key.policy = "stall";   // scheduling needs warps to pick from
            keys.push_back(key);
        }
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    std::vector<std::vector<double>> values;   // [net][sched]
    for (const auto &net : nets) {
        double base = 0.0;
        std::vector<double> col;
        for (size_t s = 0; s < scheds.size(); s++) {
            const rt::NetRun &run = **next++;
            if (s == 0)
                base = run.totalTimeSec;
            col.push_back(base > 0 ? run.totalTimeSec / base : 0.0);
        }
        values.push_back(col);
        bench::registerValue("fig15/" + net + "/lrr_vs_gto", "norm_time",
                             col[1]);
    }

    rt::printStacked(std::cout,
                     "Fig 15: warp scheduler sensitivity (exec time "
                     "normalized to GTO)",
                     nets, schedNames, values);
    std::cout << "Observation 12: LRR is good enough for neural networks "
                 "(high conv data locality); RNNs barely react.\n";

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
