/**
 * @file
 * Fig 1 reproduction: execution-time breakdown per layer type for the
 * CNNs (CifarNet, AlexNet, SqueezeNet, ResNet).
 *
 * Paper shape to hold: convolution layers dominate every network
 * (Observation 1); in SqueezeNet the fire-expand layers take more time
 * than the plain convolutions; VGGNet is reported too for completeness.
 */

#include "bench_util.hh"

namespace {

using namespace tango;

const std::vector<std::string> figNets = {"cifarnet", "alexnet",
                                          "squeezenet", "resnet", "vggnet"};
const std::vector<std::string> figLayers = {
    "Conv", "Pooling", "FC", "Norm", "Fire_Squeeze", "Fire_Expand",
    "Eltwise", "Scale", "Relu", "Others"};

} // namespace

int
main(int argc, char **argv)
{
    tango::setVerbose(false);

    // One engine job per network; the pool simulates them concurrently.
    std::vector<rt::JobSpec> keys;
    for (const auto &net : figNets)
        keys.push_back({net});
    bench::engine().prefetch(keys);

    std::vector<std::vector<double>> values;   // [net][layer]
    for (const auto &net : figNets) {
        const rt::NetRun &run = bench::engine().run({net});
        std::vector<double> col;
        for (const auto &fig : figLayers) {
            const double frac = run.totalTimeSec > 0
                                    ? run.figTypeTime(fig) / run.totalTimeSec
                                    : 0.0;
            col.push_back(frac);
        }
        values.push_back(col);

        bench::registerValue("fig01/" + net + "/conv_fraction",
                             "conv_time_frac", col[0]);
    }

    rt::printStacked(std::cout,
                     "Fig 1: execution time breakdown w.r.t. layer type",
                     figNets, figLayers, values, /*as_percent=*/true);

    // Headline check (Observation 1): conv + fire dominate.
    Table obs("Observation 1: convolution share of execution time");
    obs.header({"network", "conv(+fire) time share"});
    for (size_t i = 0; i < figNets.size(); i++) {
        const double conv =
            values[i][0] + values[i][4] + values[i][5];   // Conv + Fire_*
        obs.row({figNets[i], Table::pct(conv)});
    }
    obs.print(std::cout);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
