/**
 * @file
 * Fig 16 reproduction: per-layer warp-scheduler sensitivity of AlexNet
 * (exec time per layer under GTO/LRR/TLV, normalized to GTO).
 *
 * Paper shape to hold: the scheduler differences concentrate in the
 * convolution layers (high data locality lets LRR win there).
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

    // Collect per-layer times under each scheduler (one engine job per
    // scheduler, simulated concurrently).
    std::vector<rt::JobSpec> keys;
    for (auto s : scheds) {
        rt::JobSpec key{"alexnet"};
        key.sched = s;
        key.policy = "stall";
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);

    std::vector<std::string> layerNames;
    for (const auto &l : runs[0]->layers)
        layerNames.push_back(l.name);

    std::vector<std::vector<double>> values;   // [sched][layer]
    for (size_t s = 0; s < scheds.size(); s++) {
        std::vector<double> col;
        for (size_t li = 0; li < layerNames.size(); li++) {
            const double base = runs[0]->layers[li].timeSec();
            const double t = runs[s]->layers[li].timeSec();
            col.push_back(base > 0 ? t / base : 0.0);
        }
        values.push_back(col);
    }

    rt::printStacked(std::cout,
                     "Fig 16: per-layer warp scheduler sensitivity of "
                     "AlexNet (normalized to GTO)",
                     schedNames, layerNames, values);

    // Headline: conv-layer aggregate sensitivity.
    double convGto = 0.0, convLrr = 0.0;
    for (size_t li = 0; li < layerNames.size(); li++) {
        if (runs[0]->layers[li].figType == "Conv") {
            convGto += runs[0]->layers[li].timeSec();
            convLrr += runs[1]->layers[li].timeSec();
        }
    }
    std::cout << "Headline: AlexNet conv time LRR/GTO = "
              << Table::num(convGto > 0 ? convLrr / convGto : 0.0, 3)
              << " (paper: improvement concentrated in conv layers)\n";
    bench::registerValue("fig16/conv_lrr_vs_gto", "norm_time",
                         convGto > 0 ? convLrr / convGto : 0.0);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
