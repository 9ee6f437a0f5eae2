/**
 * @file
 * Fig 4 reproduction: average power (energy) breakdown per layer type
 * for the CNNs.
 *
 * Paper shape to hold (Observation 4): although convolution dominates
 * execution *time*, the *power* distribution is more balanced — pooling
 * draws nearly as much as convolution in CifarNet, and ResNet's
 * Scale/Relu/Norm layers together rival its convolutions — because every
 * layer type hammers the caches and memory.
 */

#include "bench_util.hh"

namespace {

using namespace tango;

const std::vector<std::string> figNets = {"cifarnet", "alexnet",
                                          "squeezenet", "resnet"};
const std::vector<std::string> figLayers = {"Conv",    "Pooling", "FC",
                                            "Norm",    "Fire",    "Relu",
                                            "Scale",   "Eltwise", "Others"};

double
avgPowerOfFig(const rt::NetRun &run, const std::string &fig)
{
    // Average power of a layer class = its energy / its time.
    double e = 0.0, t = 0.0;
    for (const auto &l : run.layers) {
        std::string f = l.figType;
        if (f == "Fire_Squeeze" || f == "Fire_Expand")
            f = "Fire";
        if (f != fig)
            continue;
        e += l.energyJ();
        t += l.timeSec();
    }
    return t > 0 ? e / t : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &net : figNets)
        keys.push_back({net});
    bench::engine().prefetch(keys);

    std::vector<std::vector<double>> values;   // [net][layer]
    for (const auto &net : figNets) {
        const rt::NetRun &run = bench::engine().run({net});
        std::vector<double> col;
        for (const auto &fig : figLayers)
            col.push_back(avgPowerOfFig(run, fig));
        values.push_back(col);
    }

    rt::printStacked(std::cout,
                     "Fig 4: average power per layer type (W)", figNets,
                     figLayers, values);

    // Observation 4 headline: pooling-vs-conv power ratio in CifarNet
    // should be far closer to 1 than the time ratio is.
    const rt::NetRun &cifar = bench::engine().run({"cifarnet"});
    const double convP = avgPowerOfFig(cifar, "Conv");
    const double poolP = avgPowerOfFig(cifar, "Pooling");
    const double convT = cifar.figTypeTime("Conv");
    const double poolT = cifar.figTypeTime("Pooling");
    std::cout << "Observation 4 (CifarNet): pool/conv power ratio = "
              << Table::num(convP > 0 ? poolP / convP : 0.0, 2)
              << " vs pool/conv time ratio = "
              << Table::num(convT > 0 ? poolT / convT : 0.0, 3) << "\n";
    bench::registerValue("fig04/cifarnet/pool_conv_power_ratio", "ratio",
                         convP > 0 ? poolP / convP : 0.0);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
