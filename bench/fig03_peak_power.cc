/**
 * @file
 * Fig 3 reproduction: peak power consumption across layers for every
 * network.
 *
 * Paper shape to hold (Observation 3): networks with larger layers show
 * higher peak power — AlexNet and ResNet at the top, CifarNet and the
 * RNNs at the bottom (the paper saw ~5x between AlexNet and CifarNet).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nn::models::allNames())
        keys.push_back({net});
    bench::engine().prefetch(keys);

    Table t("Fig 3: peak power consumption across layers (W)");
    t.header({"network", "peak power (W)"});
    double cifar = 0.0, alex = 0.0;
    for (const auto &net : nn::models::allNames()) {
        const rt::NetRun &run = bench::engine().run({net});
        t.row({net, Table::num(run.peakPowerW, 1)});
        if (net == "cifarnet")
            cifar = run.peakPowerW;
        if (net == "alexnet")
            alex = run.peakPowerW;
        bench::registerValue("fig03/" + net, "peak_W", run.peakPowerW);
    }
    t.print(std::cout);
    std::cout << "Observation 3: AlexNet/CifarNet peak ratio = "
              << Table::num(cifar > 0 ? alex / cifar : 0.0, 2)
              << "x (paper: ~5x)\n";

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
