/**
 * @file
 * Shared infrastructure for the benchmark harness.
 *
 * Every bench binary reproduces one table or figure of the paper: it
 * prefetches the figure's grid of rt::JobSpec points into the
 * process-wide rt::Engine (which shards them across worker threads and
 * memoizes the results, so repeated queries are free), prints the
 * figure's series as aligned tables, and registers google-benchmark
 * entries whose counters carry the headline numbers (so the values also
 * appear in benchmark-formatted output and JSON).
 *
 * Environment knobs (see rt::EngineOptions::fromEnv):
 *   TANGO_ENGINE_THREADS  worker count (default: hardware concurrency)
 *   TANGO_ENGINE_CACHE    JSON result-spill path; repeated invocations
 *                         then skip re-simulation entirely
 */

#ifndef TANGO_BENCH_BENCH_UTIL_HH
#define TANGO_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "kernels/kernels.hh"
#include "nn/models/models.hh"
#include "profiler/profiler.hh"
#include "runtime/engine.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"
#include "sim/gpu.hh"

namespace tango::bench {

/** The process-wide simulation engine every bench binary shares:
 *  prefetch() a figure's rt::JobSpec grid, then run() each point. */
inline rt::Engine &
engine()
{
    return rt::Engine::global();
}

/** Register a no-op benchmark whose counter carries a reproduced value. */
inline void
registerValue(const std::string &name, const std::string &counter,
              double value)
{
    benchmark::RegisterBenchmark(
        name.c_str(),
        [counter, value](benchmark::State &state) {
            for (auto _ : state) {
                benchmark::DoNotOptimize(value);
            }
            state.counters[counter] = value;
        })
        ->Iterations(1);
}

/** A real timing benchmark: simulate one small conv kernel end to end
 *  (measures this machine's simulation throughput). */
inline void
registerSimSpeed()
{
    benchmark::RegisterBenchmark(
        "BM_SimulateConvKernel", [](benchmark::State &state) {
            sim::Gpu gpu(sim::pascalGP102());
            kern::ConvDesc d;
            d.C = 3;
            d.H = d.W = 12;
            d.K = 4;
            d.R = d.S = 3;
            d.pad = 1;
            d.filterSrc = kern::ChannelSrc::GridX;
            d.pixelMap = kern::PixelMap::TileOrigin;
            d.grid = {4, 1, 1};
            d.block = {12, 12, 1};
            const uint32_t in = gpu.mem().allocate(4 * 3 * 12 * 12);
            const uint32_t w = gpu.mem().allocate(4 * 4 * 3 * 3 * 3);
            const uint32_t b = gpu.mem().allocate(4 * 4);
            const uint32_t out = gpu.mem().allocate(4 * 4 * 12 * 12);
            auto launch = kern::makeConvLaunch(d, in, w, b, out);
            sim::SimPolicy p;
            p.fullSim = true;
            uint64_t instr = 0;
            for (auto _ : state) {
                auto ks = gpu.launch(launch, p);
                instr += static_cast<uint64_t>(ks.stats.get("issued"));
            }
            state.counters["warp_instrs_per_s"] = benchmark::Counter(
                static_cast<double>(instr), benchmark::Counter::kIsRate);
        });
}

/** Standard bench epilogue: init + run google-benchmark. */
inline int
runHarness(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace tango::bench

#endif // TANGO_BENCH_BENCH_UTIL_HH
