/**
 * @file
 * Fig 12 reproduction: per-SM register file usage — maximum allocated
 * registers vs maximum live registers — for every network (Pascal
 * configuration, 256 KB register file per SM).
 *
 * Paper shape to hold (Observation 10): even the biggest networks leave
 * the register file under-utilized; RNNs use a tiny fraction.
 */

#include "bench_util.hh"

#include <cmath>

int
main(int argc, char **argv)
{
    using namespace tango;
    setVerbose(false);

    std::vector<rt::JobSpec> keys;
    for (const auto &net : nn::models::allNames())
        keys.push_back({net});
    bench::engine().prefetch(keys);

    const sim::GpuConfig cfg = sim::pascalGP102();
    const double rfKb = cfg.regFileBytesPerSm / 1024.0;

    Table t("Fig 12: per-SM register file usage (KB; RF = " +
            Table::num(rfKb, 0) + " KB)");
    t.header({"network", "max allocated (KB)", "max live (KB)",
              "allocated share"});
    for (const auto &net : nn::models::allNames()) {
        const rt::NetRun &run = bench::engine().run({net});
        // Allocated = regs/thread x resident threads at the widest kernel.
        double allocKb = 0.0, liveKb = 0.0;
        for (const auto &l : run.layers) {
            for (const auto &k : l.kernels) {
                // Hardware occupancy, not the simulation's warp budget.
                const double threads =
                    double(k.occupancyCtas) *
                    double(k.block.count());
                allocKb = std::max(allocKb,
                                   k.regsPerThread * threads * 4 / 1024.0);
                liveKb = std::max(liveKb,
                                  k.maxLiveRegs * threads * 4 / 1024.0);
            }
        }
        t.row({net, Table::num(allocKb, 1), Table::num(liveKb, 1),
               Table::pct(allocKb / rfKb)});
        bench::registerValue("fig12/" + net + "/alloc_kb", "KB", allocKb);
        bench::registerValue("fig12/" + net + "/live_kb", "KB", liveKb);
    }
    t.print(std::cout);
    std::cout << "Observation 10: the register file is significantly "
                 "under-utilized even by the large CNNs.\n";

    bench::registerSimSpeed();
    return bench::runHarness(argc, argv);
}
