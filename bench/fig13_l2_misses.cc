/**
 * @file
 * Fig 13 reproduction: total L2 misses per layer type with the L1D
 * bypassed (log scale in the paper).
 *
 * Paper shape to hold: convolution and fully-connected layers are the
 * most data-intensive; in CifarNet the FC misses rival the conv misses,
 * and in AlexNet the FC layers out-miss the convolutions.
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
        key.l1dBytes = 0;       // paper: L1D bypassed
        key.policy = "mem";     // preserve cross-CTA reuse
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    std::vector<std::vector<double>> values;   // [net][layer] log10(misses)
    for (const auto &net : figNets) {
        const rt::NetRun &run = **next++;
        std::vector<double> col;
        for (const auto &fig : figLayers) {
            const double m = figStat(run, fig, "mem.l2.misses");
            col.push_back(m);
        }
        values.push_back(col);
    }

    rt::printStacked(std::cout,
                     "Fig 13: total L2 misses per layer type (no L1D)",
                     figNets, figLayers, values);

    // Headline: AlexNet FC misses vs conv misses.
    rt::JobSpec ak{"alexnet"};
    ak.l1dBytes = 0;
    ak.policy = "mem";
    const rt::NetRun &alex = bench::engine().run(ak);
    const double fcM = figStat(alex, "FC", "mem.l2.misses");
    const double convM = figStat(alex, "Conv", "mem.l2.misses");
    std::cout << "Headline: AlexNet FC/conv L2-miss ratio = "
              << Table::num(convM > 0 ? fcM / convM : 0.0, 2)
              << " (paper: FC > conv)\n";
    bench::registerValue("fig13/alexnet_fc_over_conv", "ratio",
                         convM > 0 ? fcM / convM : 0.0);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
