/**
 * @file
 * Fig 7 reproduction: breakdown of issue-stall cycles per layer type of
 * each network, measured on the GK210 (server) configuration as in the
 * paper, using the nvprof stall taxonomy.
 *
 * Paper shapes to hold: fully-connected layers suffer the most memory
 * throttling; convolution/normalization layers see more pipe-busy
 * stalls; pooling layers stall on data (exec) dependencies; GRU patterns
 * resemble convolutions while LSTM shows more data dependency than GRU.
 */

#include "bench_util.hh"

namespace {

using namespace tango;

/** Figure layer types per network, in the paper's column order. */
const std::vector<std::pair<std::string, std::vector<std::string>>> cols = {
    {"gru", {"GRU"}},
    {"lstm", {"LSTM"}},
    {"cifarnet", {"Conv", "Pooling", "FC"}},
    {"alexnet", {"Conv", "Pooling", "FC", "Norm"}},
    {"squeezenet", {"Conv", "Pooling", "Fire"}},
    {"resnet", {"Conv", "Pooling", "FC", "Norm", "Others"}},
    {"vggnet", {"Conv", "Pooling", "FC"}},
};

StatSet
figTypeStats(const rt::NetRun &run, const std::string &fig)
{
    StatSet out;
    for (const auto &l : run.layers) {
        std::string f = l.figType;
        if (f == "Fire_Squeeze" || f == "Fire_Expand")
            f = "Fire";
        if (fig == "Others" &&
            (f == "Scale" || f == "Relu" || f == "Eltwise" ||
             f == "Others")) {
            f = "Others";
        }
        if (f != fig)
            continue;
        for (const auto &k : l.kernels)
            out.merge(k.stats);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &[net, figs] : cols) {
        rt::JobSpec key{net};
        key.platform = "GK210";
        key.l1dBytes = sim::keplerGK210().l1dBytes;
        key.policy = "stall";   // near-hardware warp residency
        keys.push_back(key);
    }
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    auto next = runs.begin();   // consumed in the order keys were built

    std::vector<std::string> groups;
    std::vector<std::vector<double>> values;
    std::vector<std::string> stallNames;
    for (size_t i = 0; i < sim::numStalls; i++)
        stallNames.push_back(sim::stallName(static_cast<sim::Stall>(i)));

    for (const auto &[net, figs] : cols) {
        const rt::NetRun &run = **next++;
        for (const auto &fig : figs) {
            const StatSet st = figTypeStats(run, fig);
            const prof::Series sb = prof::stallBreakdown(st);
            if (sb.empty())
                continue;
            groups.push_back(net + ":" + fig);
            std::vector<double> col;
            for (const auto &[name, frac] : sb)
                col.push_back(frac);
            values.push_back(col);
        }
    }

    rt::printStacked(std::cout,
                     "Fig 7: breakdown of stall cycles per layer type "
                     "(GK210)",
                     groups, stallNames, values, /*as_percent=*/true);

    // Headline shape checks the paper calls out.
    auto frac = [&](const std::string &group, sim::Stall s) -> double {
        for (size_t g = 0; g < groups.size(); g++) {
            if (groups[g] == group)
                return values[g][static_cast<size_t>(s)];
        }
        return 0.0;
    };
    Table obs("Fig 7 headline patterns");
    obs.header({"pattern", "value"});
    obs.row({"alexnet FC memory_throttle+mem_dep",
             Table::pct(frac("alexnet:FC", sim::Stall::MemoryThrottle) +
                        frac("alexnet:FC", sim::Stall::MemoryDependency))});
    obs.row({"alexnet Conv pipe_busy",
             Table::pct(frac("alexnet:Conv", sim::Stall::PipeBusy))});
    obs.row({"alexnet Pooling exec_dependency",
             Table::pct(frac("alexnet:Pooling",
                             sim::Stall::ExecDependency))});
    obs.row({"lstm exec+mem dependency",
             Table::pct(frac("lstm:LSTM", sim::Stall::ExecDependency) +
                        frac("lstm:LSTM", sim::Stall::MemoryDependency))});
    obs.print(std::cout);

    bench::registerValue("fig07/alexnet_fc_memstall", "frac",
                         frac("alexnet:FC", sim::Stall::MemoryThrottle) +
                             frac("alexnet:FC",
                                  sim::Stall::MemoryDependency));
    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
