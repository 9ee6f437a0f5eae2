/**
 * @file
 * Fig 9 reproduction: total operation breakdown aggregated over ALL
 * networks, top-10 plus "Others".
 *
 * Paper shape to hold (Observation 7): the top four operations
 * (add, mad, mul, shl — the paper measured 17/14/12/13 %) make up over
 * half of the executed instructions, and the top ten make up ~95 %.
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
    const std::vector<const rt::NetRun *> runs = bench::engine().runAll(keys);
    const StatSet totals = prof::mergeTotals(runs);

    const prof::Series all = prof::opBreakdown(totals);
    const prof::Series top = prof::topN(all, 10);

    rt::printSeries(std::cout,
                    "Fig 9: total operations breakdown across all "
                    "networks (top 10)",
                    top, /*as_percent=*/true);

    double top4 = 0.0, top10 = 0.0;
    for (size_t i = 0; i < all.size(); i++) {
        if (i < 4)
            top4 += all[i].second;
        if (i < 10)
            top10 += all[i].second;
    }
    std::cout << "Observation 7: top-4 ops = " << Table::pct(top4)
              << " (paper: >50%), top-10 ops = " << Table::pct(top10)
              << " (paper: ~95%)\n";

    bench::registerValue("fig09/top4_share", "share", top4);
    bench::registerValue("fig09/top10_share", "share", top10);
    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
