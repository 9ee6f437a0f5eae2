/**
 * @file
 * Extension: MobileNet v1 characterization.
 *
 * The paper lists MobileNet as "currently developing" (Section III);
 * this bench adds it to the suite and re-runs the headline
 * characterizations: layer-time breakdown, instruction mix, footprint,
 * and the L1D sweep — contrasting the depthwise-separable structure
 * against AlexNet.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    std::vector<rt::JobSpec> keys = {{"mobilenet"}, {"alexnet"}};
    for (uint32_t l1 : {0u, 64u * 1024, 128u * 1024}) {
        rt::JobSpec key{"mobilenet"};
        key.l1dBytes = l1;
        keys.push_back(key);
    }
    bench::engine().prefetch(keys);

    const rt::NetRun &run = bench::engine().run({"mobilenet"});
    const rt::NetRun &alex = bench::engine().run({"alexnet"});

    Table t("MobileNet v1 (extension) vs AlexNet");
    t.header({"metric", "mobilenet", "alexnet"});
    t.row({"est. time (ms)", Table::num(run.totalTimeSec * 1e3, 2),
           Table::num(alex.totalTimeSec * 1e3, 2)});
    t.row({"device memory (KB)",
           Table::num(double(run.deviceBytes) / 1024, 0),
           Table::num(double(alex.deviceBytes) / 1024, 0)});
    t.row({"thread instructions",
           Table::num(run.totals.sumPrefix("op."), 0),
           Table::num(alex.totals.sumPrefix("op."), 0)});
    t.row({"peak power (W)", Table::num(run.peakPowerW, 1),
           Table::num(alex.peakPowerW, 1)});
    t.print(std::cout);

    rt::printSeries(std::cout, "MobileNet: execution time per layer type",
                    prof::layerTimeBreakdown(run), true);
    rt::printSeries(std::cout, "MobileNet: top operations",
                    prof::topN(prof::opBreakdown(run.totals), 8), true);

    // L1D sweep for the new network (Fig 2 shape check).
    Table sweep("MobileNet: L1D sensitivity (normalized to No L1)");
    sweep.header({"config", "norm. time"});
    double base = 0.0;
    for (uint32_t l1 : {0u, 64u * 1024, 128u * 1024}) {
        rt::JobSpec key{"mobilenet"};
        key.l1dBytes = l1;
        const rt::NetRun &r = bench::engine().run(key);
        if (l1 == 0)
            base = r.totalTimeSec;
        sweep.row({l1 ? std::to_string(l1 / 1024) + "KB" : "No L1",
                   Table::num(base > 0 ? r.totalTimeSec / base : 0, 3)});
    }
    sweep.print(std::cout);

    bench::registerValue("ext_mobilenet/time_ms", "ms",
                         run.totalTimeSec * 1e3);
    bench::registerValue("ext_mobilenet/mem_kb", "KB",
                         double(run.deviceBytes) / 1024);
    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
