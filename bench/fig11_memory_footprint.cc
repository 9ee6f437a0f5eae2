/**
 * @file
 * Fig 11 reproduction: maximum device memory usage per network, measured
 * on the TX1 configuration (log scale in the paper).
 *
 * Paper shape to hold (Observation 9): GRU/LSTM fit in < 500 KB; every
 * CNN needs at least ~1 MB, with AlexNet and VGGNet in the
 * hundreds-of-MB range (model-size dominated).
 */

#include "bench_util.hh"

#include <cmath>

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nn::models::allNames()) {
        rt::JobSpec key{net};
        key.platform = "TX1";
        key.l1dBytes = sim::maxwellTX1().l1dBytes;
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    Table t("Fig 11: max device memory usage (KB, TX1)");
    t.header({"network", "device memory (KB)", "log10(KB)"});
    for (const auto &net : nn::models::allNames()) {
        const rt::NetRun &run = **next++;
        const double kb = static_cast<double>(run.deviceBytes) / 1024.0;
        t.row({net, Table::num(kb, 0),
               Table::num(kb > 0 ? std::log10(kb) : 0.0, 2)});
        bench::registerValue("fig11/" + net, "KB", kb);
    }
    t.print(std::cout);
    std::cout << "Observation 9: RNNs < 500 KB (fit on PynQ); CNNs >= "
                 "1 MB and need per-layer partitioning on the FPGA.\n";

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
