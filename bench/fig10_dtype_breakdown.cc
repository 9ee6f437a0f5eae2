/**
 * @file
 * Fig 10 reproduction: instruction data-type breakdown throughout the
 * execution of ResNet (layer by layer, in invocation order).
 *
 * Paper shape to hold (Observation 8): f32 is NOT the dominant type —
 * unsigned integers (index arithmetic, warp-unit address math) dominate,
 * with f32 around ~20% early and shrinking in deeper layers.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    const rt::NetRun &run = bench::engine().run({"resnet"});

    // Per-layer series in invocation order (sampled every N layers so the
    // table stays readable; ResNet-50 has ~175 layers).
    Table t("Fig 10: instruction type breakdown through ResNet execution");
    t.header({"layer", "f32", "u32", "u16", "s32", "s16"});
    const size_t step = std::max<size_t>(1, run.layers.size() / 24);
    for (size_t i = 0; i < run.layers.size(); i += step) {
        StatSet st;
        for (const auto &k : run.layers[i].kernels)
            st.merge(k.stats);
        const prof::Series d = prof::dtypeBreakdown(st);
        std::vector<std::string> row = {run.layers[i].name};
        for (const auto &[name, frac] : d)
            row.push_back(Table::pct(frac));
        t.row(row);
    }
    t.print(std::cout);

    // Whole-network mix.
    const prof::Series whole = prof::dtypeBreakdown(run.totals);
    rt::printSeries(std::cout, "Fig 10 (aggregate): ResNet dtype mix",
                    whole, /*as_percent=*/true);
    double f32 = 0.0, uint_share = 0.0;
    for (const auto &[name, frac] : whole) {
        if (name == "f32")
            f32 = frac;
        if (name == "u32" || name == "u16")
            uint_share += frac;
    }
    std::cout << "Observation 8: f32 share = " << Table::pct(f32)
              << " (paper: ~20% and below); unsigned-int share = "
              << Table::pct(uint_share) << " (dominant)\n";

    bench::registerValue("fig10/f32_share", "share", f32);
    bench::registerValue("fig10/uint_share", "share", uint_share);
    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
