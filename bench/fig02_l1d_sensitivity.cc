/**
 * @file
 * Fig 2 reproduction: normalized execution time while sweeping the L1D
 * size — bypassed (No L1), 64 KB (Pascal default), 128 KB, 256 KB — for
 * every network.
 *
 * Paper shape to hold (Observation 2): CNNs speed up substantially with
 * an L1D (AlexNet ~2x at 64 KB, small further gains beyond); RNNs are
 * insensitive.
 */

#include "bench_util.hh"

namespace {

using namespace tango;

const std::vector<uint32_t> sizes = {0, 64 * 1024, 128 * 1024, 256 * 1024};
const std::vector<std::string> sizeNames = {"No L1", "L1(64K)", "2xL1",
                                            "4xL1"};

} // namespace

int
main(int argc, char **argv)
{
    tango::setVerbose(false);

    const auto nets = nn::models::allNames();

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nets) {
        for (uint32_t size : sizes) {
            rt::JobSpec key{net};
            key.l1dBytes = size;
            keys.push_back(key);
        }
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    std::vector<std::vector<double>> values;   // [net][size]
    for (const auto &net : nets) {
        double base = 0.0;
        std::vector<double> col;
        for (size_t i = 0; i < sizes.size(); i++) {
            const rt::NetRun &run = **next++;
            if (i == 0)
                base = run.totalTimeSec;
            col.push_back(base > 0 ? run.totalTimeSec / base : 0.0);
        }
        values.push_back(col);
        bench::registerValue("fig02/" + net + "/speedup_64K", "speedup",
                             col[1] > 0 ? 1.0 / col[1] : 0.0);
    }

    rt::printStacked(std::cout,
                     "Fig 2: execution time vs L1D size (normalized to "
                     "No L1)",
                     nets, sizeNames, values);

    Table obs("Observation 2: 64KB-L1D speedup over bypassed L1");
    obs.header({"network", "speedup"});
    for (size_t i = 0; i < nets.size(); i++) {
        obs.row({nets[i],
                 Table::num(values[i][1] > 0 ? 1.0 / values[i][1] : 0.0, 2) +
                     "x"});
    }
    obs.print(std::cout);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
