/**
 * @file
 * Fig 14 reproduction: L2 miss *ratio* per layer type with the L1D
 * bypassed.
 *
 * Paper shape to hold (Observation 11): convolution layers miss in L2 at
 * a far lower rate (<~1%) than fully-connected layers (~10%) — conv has
 * high data locality, FC streams its weights once.
 */

#include "bench_util.hh"

namespace {

using namespace tango;

const std::vector<std::string> figNets = {"cifarnet", "alexnet",
                                          "squeezenet", "resnet"};
const std::vector<std::string> figLayers = {"Conv",  "Pooling", "FC",
                                            "Norm",  "Fire",    "Relu",
                                            "Scale", "Eltwise"};

double
figStat(const rt::NetRun &run, const std::string &fig,
        const std::string &stat)
{
    double total = 0.0;
    for (const auto &l : run.layers) {
        std::string f = l.figType;
        if (f == "Fire_Squeeze" || f == "Fire_Expand")
            f = "Fire";
        if (f != fig)
            continue;
        for (const auto &k : l.kernels)
            total += k.stats.get(stat);
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &net : figNets) {
        rt::JobSpec key{net};
        key.l1dBytes = 0;
        key.policy = "mem";
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    std::vector<std::vector<double>> values;
    for (const auto &net : figNets) {
        const rt::NetRun &run = **next++;
        std::vector<double> col;
        for (const auto &fig : figLayers) {
            const double acc = figStat(run, fig, "mem.l2.accesses");
            const double miss = figStat(run, fig, "mem.l2.misses");
            col.push_back(acc > 0 ? miss / acc : 0.0);
        }
        values.push_back(col);
    }

    rt::printStacked(std::cout,
                     "Fig 14: L2 miss ratio per layer type (no L1D)",
                     figNets, figLayers, values);

    // Observation 11: conv ratio << FC ratio (averaged over networks).
    double convR = 0.0, fcR = 0.0;
    int convN = 0, fcN = 0;
    for (size_t n = 0; n < figNets.size(); n++) {
        if (values[n][0] > 0) {
            convR += values[n][0];
            convN++;
        }
        if (values[n][2] > 0) {
            fcR += values[n][2];
            fcN++;
        }
    }
    convR = convN ? convR / convN : 0.0;
    fcR = fcN ? fcR / fcN : 0.0;
    std::cout << "Observation 11: avg conv L2 miss ratio = "
              << Table::pct(convR) << " vs avg FC = " << Table::pct(fcR)
              << " (paper: <1% vs ~10%)\n";

    bench::registerValue("fig14/conv_ratio", "ratio", convR);
    bench::registerValue("fig14/fc_ratio", "ratio", fcR);
    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
