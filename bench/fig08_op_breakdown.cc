/**
 * @file
 * Fig 8 reproduction: operation-type breakdown per network.
 *
 * Paper shapes to hold (Observation 6): the two RNNs share one mix
 * pattern and the five CNNs another; add/ld/mad/set dominate RNNs, and
 * CNNs additionally use shl and mul heavily (index arithmetic).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    const auto nets = nn::models::allNames();

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nets)
        keys.push_back({net});
    bench::engine().prefetch(keys);

    // Collect the union of opcodes that appear anywhere.
    std::vector<std::string> ops;
    std::vector<prof::Series> series;
    for (const auto &net : nets) {
        const rt::NetRun &run = bench::engine().run({net});
        series.push_back(prof::opBreakdown(run.totals));
        for (const auto &[op, frac] : series.back()) {
            if (std::find(ops.begin(), ops.end(), op) == ops.end())
                ops.push_back(op);
        }
    }
    std::sort(ops.begin(), ops.end());

    std::vector<std::vector<double>> values;   // [net][op]
    for (size_t n = 0; n < nets.size(); n++) {
        std::vector<double> col(ops.size(), 0.0);
        for (const auto &[op, frac] : series[n]) {
            const auto it = std::find(ops.begin(), ops.end(), op);
            col[static_cast<size_t>(it - ops.begin())] = frac;
        }
        values.push_back(col);
    }

    rt::printStacked(std::cout, "Fig 8: operation type breakdown", nets,
                     ops, values, /*as_percent=*/true);

    // Headline: top-4 {add, mad, mul, shl} share per network class.
    Table obs("Fig 8 headline: add+mad+mul+shl share");
    obs.header({"network", "share"});
    for (size_t n = 0; n < nets.size(); n++) {
        double s = 0.0;
        for (const auto &[op, frac] : series[n]) {
            if (op == "add" || op == "mad" || op == "mul" || op == "shl")
                s += frac;
        }
        obs.row({nets[n], Table::pct(s)});
        bench::registerValue("fig08/" + nets[n] + "/top4_share", "share",
                             s);
    }
    obs.print(std::cout);

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
