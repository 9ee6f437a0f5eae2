/**
 * @file
 * Fig 6 reproduction: energy consumption of CifarNet and SqueezeNet on
 * the embedded GPU (TX1) vs the embedded FPGA (PynQ-Z1), normalized to
 * PynQ.
 *
 * Paper shape to hold: TX1 runs 1.7-1.8x *faster* but draws 2.28-3.2x
 * more peak power, so its total energy ends up 1.34-1.74x *higher* than
 * the FPGA's.
 */

#include "bench_util.hh"

#include "fpga/pynq.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const char *netName : {"cifarnet", "squeezenet"}) {
        rt::JobSpec key{netName};
        key.platform = "TX1";
        key.l1dBytes = sim::maxwellTX1().l1dBytes;
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    Table t("Fig 6: energy on embedded GPU (TX1) vs embedded FPGA (PynQ)");
    t.header({"network", "TX1 time(ms)", "PynQ time(ms)", "TX1 peak(W)",
              "PynQ peak(W)", "TX1 energy(mJ)", "PynQ energy(mJ)",
              "TX1/PynQ energy"});

    for (const char *netName : {"cifarnet", "squeezenet"}) {
        const rt::NetRun &gpuRun = **next++;
        // The paper computes energy as peak power x execution time
        // (the Wattsup meter reports power, not energy).
        const double gpuEnergy = gpuRun.peakPowerW * gpuRun.totalTimeSec;

        nn::Network net = nn::models::buildCnn(netName);
        const fpga::FpgaRun fpgaRun = fpga::runOnPynq(net);
        const double fpgaEnergy =
            fpgaRun.peakPowerW * fpgaRun.totalTimeSec;

        t.row({netName, Table::num(gpuRun.totalTimeSec * 1e3, 2),
               Table::num(fpgaRun.totalTimeSec * 1e3, 2),
               Table::num(gpuRun.peakPowerW, 1),
               Table::num(fpgaRun.peakPowerW, 1),
               Table::num(gpuEnergy * 1e3, 1),
               Table::num(fpgaEnergy * 1e3, 1),
               Table::num(fpgaEnergy > 0 ? gpuEnergy / fpgaEnergy : 0.0,
                          2) +
                   "x"});
        bench::registerValue(std::string("fig06/") + netName +
                                 "/energy_ratio",
                             "tx1_over_pynq",
                             fpgaEnergy > 0 ? gpuEnergy / fpgaEnergy : 0.0);
        bench::registerValue(std::string("fig06/") + netName +
                                 "/power_ratio",
                             "tx1_over_pynq",
                             fpgaRun.peakPowerW > 0
                                 ? gpuRun.peakPowerW / fpgaRun.peakPowerW
                                 : 0.0);
    }
    t.print(std::cout);
    std::cout << "Paper: TX1 power 2.28x/3.2x higher, runtime 1.7x/1.8x "
                 "shorter, energy 1.34x/1.74x higher than PynQ.\n";

    tango::bench::registerSimSpeed();
    return tango::bench::runHarness(argc, argv);
}
