/**
 * @file
 * Architecture explorer: the workflow the benchmark suite exists for.
 * An accelerator designer sweeps cache sizes and warp schedulers over a
 * DNN workload on the simulator — the experiment the paper argues is
 * impossible with library-bound benchmark suites (Section IV-F).
 *
 * Sweeps AlexNet over {L1D size} x {warp scheduler} and prints the
 * execution-time matrix plus the resulting design recommendation. The
 * twelve design points are independent simulations, so the whole sweep
 * is handed to rt::Engine and runs in parallel across worker threads.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "runtime/engine.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

int
main()
{
    using namespace tango;
    setVerbose(false);

    const std::vector<std::pair<std::string, uint32_t>> l1Sizes = {
        {"No L1", 0},
        {"64KB", 64 * 1024},
        {"128KB", 128 * 1024},
        {"256KB", 256 * 1024}};
    const std::vector<sim::SchedPolicy> scheds = {
        sim::SchedPolicy::GTO, sim::SchedPolicy::LRR,
        sim::SchedPolicy::TLV};

    // Enumerate the design space as engine keys and simulate them all
    // concurrently.
    std::vector<rt::JobSpec> keys;
    for (const auto &[l1Name, l1Bytes] : l1Sizes) {
        for (auto sched : scheds) {
            rt::JobSpec key{"alexnet"};
            key.l1dBytes = l1Bytes;
            key.sched = sched;
            keys.push_back(key);
        }
    }
    const std::vector<const rt::NetRun *> runs =
        rt::Engine::global().runAll(keys);

    Table t("AlexNet execution time (ms) across the design space");
    t.header({"L1D \\ scheduler", "gto", "lrr", "tlv"});

    double best = 1e30;
    std::string bestCfg;
    size_t idx = 0;
    for (const auto &[l1Name, l1Bytes] : l1Sizes) {
        std::vector<std::string> row = {l1Name};
        for (auto sched : scheds) {
            const rt::NetRun &run = *runs[idx++];
            row.push_back(Table::num(run.totalTimeSec * 1e3, 2));
            if (run.totalTimeSec < best) {
                best = run.totalTimeSec;
                bestCfg = l1Name + std::string(" + ") +
                          sim::schedName(sched);
            }
        }
        t.row(row);
    }
    t.print(std::cout);
    std::printf("\nbest configuration for AlexNet: %s (%.2f ms)\n",
                bestCfg.c_str(), best * 1e3);
    std::printf("arch_explorer: OK\n");
    return 0;
}
